package sim_test

import (
	"bytes"
	"fmt"
	"reflect"

	"dewrite/internal/config"
	"dewrite/internal/sim"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// Example runs one application against DeWrite and the traditional secure
// NVM and prints the headline comparison.
func Example() {
	prof, _ := workload.ByName("lbm")
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(4 * units.MB)
	opts := sim.Options{Requests: 12000, Warmup: 3000, Seed: 42}

	dw, _ := sim.RunScheme(sim.SchemeDeWrite, prof, cfg, opts)
	base, _ := sim.RunScheme(sim.SchemeSecureNVM, prof, cfg, opts)

	fmt.Printf("lbm: writes faster: %v, reads faster: %v, IPC higher: %v, energy lower: %v\n",
		sim.WriteSpeedup(dw, base) > 2,
		sim.ReadSpeedup(dw, base) > 1.5,
		sim.RelativeIPC(dw, base) > 1.2,
		sim.RelativeEnergy(dw, base) < 0.7)
	// Output:
	// lbm: writes faster: true, reads faster: true, IPC higher: true, energy lower: true
}

// ExampleRunTrace records a workload once, round-trips it through the binary
// trace format, and replays the identical stream through DeWrite and the
// traditional secure NVM — the apples-to-apples methodology the experiment
// suite uses, with the trace as the only thing the two runs share.
func ExampleRunTrace() {
	prof, _ := workload.ByName("streamcluster")
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(4 * units.MB)
	recorded := workload.Generate(prof, 2026, 12000)

	var file bytes.Buffer
	if _, err := recorded.WriteTo(&file); err != nil {
		fmt.Println(err)
		return
	}
	loaded, err := trace.ReadTrace(&file)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("round trip intact:", reflect.DeepEqual(loaded, recorded))

	base := sim.RunTrace(loaded, sim.NewMemory(sim.SchemeSecureNVM, loaded.Lines, cfg), 3000)
	dw := sim.RunTrace(loaded, sim.NewMemory(sim.SchemeDeWrite, loaded.Lines, cfg), 3000)
	fmt.Println("same stream:", dw.MemWrites == base.MemWrites && dw.MemReads == base.MemReads)
	fmt.Printf("streamcluster: writes faster: %v, reads faster: %v, IPC higher: %v, energy lower: %v\n",
		sim.WriteSpeedup(dw, base) > 1.5,
		sim.ReadSpeedup(dw, base) > 1.2,
		sim.RelativeIPC(dw, base) > 1.2,
		sim.RelativeEnergy(dw, base) < 0.8)
	// Output:
	// round trip intact: true
	// same stream: true
	// streamcluster: writes faster: true, reads faster: true, IPC higher: true, energy lower: true
}
