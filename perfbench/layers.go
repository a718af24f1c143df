package main

import (
	"time"

	"dewrite/internal/cme"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/crypto/aes"
	"dewrite/internal/dedup"
	"dewrite/internal/hashes"
	"dewrite/internal/metacache"
	"dewrite/internal/nvm"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// microBudget is how long each microcost is timed.
const microBudget = 150 * time.Millisecond

// benchKey is a 16-byte key for the AES and counter-mode microcosts; the
// cost does not depend on the key.
var benchKey = []byte("perfbench-key-16")

// sink keeps measured calls from being optimized away.
var sink uint64

// corpus is a workload's own write lines and their line addresses.
type corpus struct {
	lines []*[config.LineSize]byte
	addrs []uint64
}

// workloadCorpus collects the first n writes of the profile's stream.
func workloadCorpus(prof workload.Profile, seed uint64, n int) corpus {
	gen := workload.NewGenerator(prof, seed)
	gen.SetRecycle(true)
	var c corpus
	for len(c.lines) < n {
		req := gen.Next()
		if req.Op != trace.Write {
			continue
		}
		line := new([config.LineSize]byte)
		copy(line[:], req.Data)
		c.lines = append(c.lines, line)
		c.addrs = append(c.addrs, req.Addr)
	}
	return c
}

// microcosts are host ns per call of each layer, measured by replaying a
// corpus; zero means the layer was not measured for the workload.
type microcosts struct {
	next, crc, aesBlock, encryptLine, nvmWrite, nvmRead, lookup, candidates float64
}

func (m microcosts) metrics() map[string]float64 {
	return map[string]float64{
		"workload.next_ns":    m.next,
		"hashes.crc32_ns":     m.crc,
		"aes.block_ns":        m.aesBlock,
		"cme.encrypt_line_ns": m.encryptLine,
		"nvm.write_ns":        m.nvmWrite,
		"nvm.read_ns":         m.nvmRead,
		"metacache.lookup_ns": m.lookup,
		"dedup.candidates_ns": m.candidates,
	}
}

// replayMicrocosts times the generator on the profile and seed, then every
// layer on the profile's own lines; ctrl supplies the dedup tables the
// candidate lookups run against.
func replayMicrocosts(prof workload.Profile, seed uint64, ctrl *core.Controller) microcosts {
	cp := workloadCorpus(prof, seed, 1<<14)
	mc := measureCorpus(cp, prof.WorkingSetLines, simConfig())
	mc.next = generatorNs(prof, seed, microBudget)
	mask := hashMask(simConfig().Dedup.HashSizeBits)
	hs := make([]uint32, len(cp.lines))
	for i, l := range cp.lines {
		hs[i] = hashes.CRC32(l[:]) & mask
	}
	tables := ctrl.Tables()
	mc.candidates = timeLoop(len(hs), microBudget, func(i int) { sink += uint64(len(tables.Candidates(hs[i]))) })
	return mc
}

// generatorNs times Generator.Next on the profile and seed.
func generatorNs(p workload.Profile, seed uint64, budget time.Duration) float64 {
	gen := workload.NewGenerator(p, seed)
	gen.SetRecycle(true)
	return timeLoop(1024, budget, func(int) { sink += gen.Next().Addr })
}

// measureCorpus times CRC-32, one AES block, one counter-mode line, a
// device write and read, and a metadata-cache lookup (filling on a miss, as
// the controller does) on the corpus.
func measureCorpus(cp corpus, dataLines uint64, cfg config.Config) microcosts {
	var mc microcosts
	n := len(cp.lines)
	mc.crc = timeLoop(n, microBudget, func(i int) { sink += uint64(hashes.CRC32(cp.lines[i][:])) })

	blk := aes.MustNew(benchKey)
	var out [config.LineSize]byte
	mc.aesBlock = timeLoop(n*config.AESBlocksPerLine, microBudget, func(i int) {
		off := (i % config.AESBlocksPerLine) * 16
		blk.Encrypt(out[:16], cp.lines[i/config.AESBlocksPerLine][off:off+16])
	})
	eng := cme.MustNewEngine(benchKey)
	mc.encryptLine = timeLoop(n, microBudget, func(i int) { eng.EncryptLine(out[:], cp.lines[i][:], cp.addrs[i], uint64(i)) })

	layout := dedup.NewLayout(dataLines)
	geom := cfg.NVM
	geom.CapacityBytes = layout.TotalLines * config.LineSize
	dev := nvm.New(geom, cfg.Timing, cfg.Energy)
	var now units.Time
	mc.nvmWrite = timeLoop(n, microBudget, func(i int) { now = dev.Write(now, cp.addrs[i], cp.lines[i][:]) })
	mc.nvmRead = timeLoop(n, microBudget, func(i int) { now = dev.ReadInto(now, cp.addrs[i], out[:]) })

	meta := cfg.MetaCache
	cache := metacache.New("hash", meta.HashBytes, meta.BlockBytes, meta.Ways)
	mask := hashMask(cfg.Dedup.HashSizeBits)
	blocks := make([]uint64, n)
	for i, l := range cp.lines {
		blocks[i] = layout.HashLine(hashes.CRC32(l[:]) & mask)
	}
	mc.lookup = timeLoop(n, microBudget, func(i int) {
		if !cache.Lookup(blocks[i], false) {
			cache.Insert(blocks[i], false)
		}
	})
	sink += uint64(out[0])
	return mc
}

// hashMask truncates fingerprints to the configured width, as the
// controller does.
func hashMask(bits int) uint32 {
	if bits <= 0 || bits >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(bits)) - 1
}
