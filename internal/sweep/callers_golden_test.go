package sweep_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"mzqos/internal/buffer"
	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/mixed"
	"mzqos/internal/sim"
	"mzqos/internal/workload"
)

// digest folds typed values into one FNV-1a hash, so a golden constant
// pins every bit of every field fed to it.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}
func (d digest) int(v int)     { d.u64(uint64(int64(v))) }
func (d digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d digest) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d digest) estimate(e sim.Estimate) {
	d.f64(e.P)
	d.f64(e.Lo)
	d.f64(e.Hi)
	d.u64(uint64(e.Hits))
	d.u64(uint64(e.Trials))
}

// callersPlan puts rng-independent read errors (some exhausting their one
// retry), a latency spell and a disk failure inside the 200-round horizon.
func callersPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 11,
		Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: fault.AllDisks, From: 10, Until: 40, Factor: 1.4},
			{Kind: fault.ReadError, Disk: 0, From: 20, Until: 150, Prob: 0.2, Retries: 1},
			{Kind: fault.Failure, Disk: 1, From: 90, Until: 96},
		},
	}
}

// TestSweepCallersGolden pins, bit for bit, what every caller other than
// the live server makes of the sweep kernel: the timeline replay, the
// Monte-Carlo estimators, and the mixed-workload and client-buffering
// simulators. The live server's pins are TestStepGolden
// and TestStepGoldenLifecycle. The constants were computed at the commit
// before Serve took separate in and out slices; a change to the kernel or
// to how a caller feeds it must leave them unchanged. Worker counts are
// fixed, so the digests do not depend on GOMAXPROCS.
func TestSweepCallersGolden(t *testing.T) {
	viking := disk.QuantumViking21()
	sizes := workload.PaperSizes()
	simCfg := sim.Config{Disk: viking, Sizes: sizes, RoundLength: 1, N: 26, Workers: 3}

	replayDigest := func(t *testing.T, plan *fault.Plan) uint64 {
		// One replay per disk of a 2-disk array: disk 0 takes the plan's
		// hash-keyed read errors, disk 1 its failure.
		d := newDigest()
		for dd := 0; dd < 2; dd++ {
			cfg := simCfg
			cfg.Faults, cfg.FaultDisk = plan, dd
			outs, err := sim.ReplayRounds(cfg, 200, 42)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				d.int(o.Round)
				d.f64(o.Total)
				d.int(o.Glitches)
				d.int(o.Lost)
				d.bool(o.Faulty)
				d.bool(o.Down)
			}
		}
		return d.h.Sum64()
	}
	measureDigest := func(t *testing.T, cfg sim.Config) uint64 {
		st, err := sim.MeasureRounds(cfg, 3000, 5)
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		d.f64(st.Mean)
		d.f64(st.Std)
		d.f64(st.PLate)
		d.u64(uint64(st.Trials))
		return d.h.Sum64()
	}
	bufferDigest := func(t *testing.T, workConserving bool) uint64 {
		cfg := simCfg
		cfg.N = 34 // near saturation, so both settings see late fragments
		res, err := buffer.Simulate(buffer.SimConfig{Sim: cfg, SlackRounds: 1, WorkConserving: workConserving}, 2000, 9)
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		d.int(res.Rounds)
		d.f64(res.VisibleGlitchRate)
		d.f64(res.RawLateRate)
		d.f64(res.MeanOverrun)
		return d.h.Sum64()
	}

	cases := []struct {
		name string
		got  func(t *testing.T) uint64
		want uint64
	}{
		{"sim.ReplayRounds/faulted", func(t *testing.T) uint64 { return replayDigest(t, callersPlan()) }, 0x3b8c453a83b0324e},
		{"sim.MeasureRounds", func(t *testing.T) uint64 { return measureDigest(t, simCfg) }, 0x1dda81fe89989856},
		{"sim.MeasureRounds/rng-read-errors", func(t *testing.T) uint64 {
			// The stationary estimators draw read errors from rng, the
			// kernel's other draw path.
			cfg := simCfg
			cfg.Faults = &fault.Plan{Seed: 3, Faults: []fault.Fault{
				{Kind: fault.ReadError, Disk: 0, From: 0, Until: 10, Prob: 0.1, Retries: 2},
			}}
			cfg.FaultRound = 5
			return measureDigest(t, cfg)
		}, 0x13699e4e7b16eb8d},
		{"sim.MeasureRounds/n=150", func(t *testing.T) uint64 {
			// Past the kernel's small-sweep ordering path.
			cfg := simCfg
			cfg.N = 150
			cfg.RoundLength = 4.3
			return measureDigest(t, cfg)
		}, 0xb58e757b118d874b},
		{"sim.PositionBias", func(t *testing.T) uint64 {
			cfg := simCfg
			cfg.N = 30
			est, err := sim.PositionBias(cfg, 3000, 5)
			if err != nil {
				t.Fatal(err)
			}
			d := newDigest()
			for _, e := range est {
				d.estimate(e)
			}
			return d.h.Sum64()
		}, 0x84ba5bd51ecf28d8},
		{"mixed.Simulate", func(t *testing.T) uint64 {
			discrete, err := workload.GammaSizes(40*workload.KB, 30*workload.KB)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mixed.Simulate(mixed.Config{
				Disk: viking, RoundLength: 1, Reserve: 0.2,
				ContinuousSizes: sizes, DiscreteSizes: discrete, DiscreteRate: 5,
			}, 22, 2000, 9)
			if err != nil {
				t.Fatal(err)
			}
			d := newDigest()
			d.int(res.Rounds)
			d.f64(res.ContinuousGlitchRate)
			d.f64(res.ContinuousOverrunRate)
			d.int(res.DiscreteServed)
			d.f64(res.DiscreteMeanResponse)
			d.f64(res.DiscreteP95Response)
			d.int(res.DiscreteMaxQueue)
			return d.h.Sum64()
		}, 0x7aca772ac1d61659},
		{"buffer.Simulate/gated", func(t *testing.T) uint64 { return bufferDigest(t, false) }, 0x825ebc49d06dd19c},
		{"buffer.Simulate/work-conserving", func(t *testing.T) uint64 { return bufferDigest(t, true) }, 0x7b82c6beec81cebf},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.got(t); got != tc.want {
				t.Errorf("digest = %#x, want %#x", got, tc.want)
			}
		})
	}
}
