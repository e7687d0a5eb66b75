package mzqos_test

import (
	"fmt"

	"mzqos"
)

// ExampleNewModel computes the paper's headline admission limits for the
// Table-1 disk and workload.
func ExampleNewModel() {
	m, err := mzqos.NewModel(mzqos.ModelConfig{
		Disk:        mzqos.QuantumViking21(),
		Sizes:       mzqos.MustGammaSizes(200*mzqos.KB, 100*mzqos.KB),
		RoundLength: 1.0,
	})
	if err != nil {
		panic(err)
	}
	perRound, _ := m.NMaxLate(0.01)
	perStream, _ := m.NMaxError(1200, 12, 0.01)
	worstCase, _ := m.WorstCaseNMax(mzqos.WorstCaseSpec{SizeQuantile: 0.99})
	fmt.Printf("per-round guarantee:  %d streams\n", perRound)
	fmt.Printf("per-stream guarantee: %d streams\n", perStream)
	fmt.Printf("deterministic worst case: %d streams\n", worstCase)
	// Output:
	// per-round guarantee:  26 streams
	// per-stream guarantee: 28 streams
	// deterministic worst case: 10 streams
}

// ExampleBuildTable precomputes the §5 admission lookup table.
func ExampleBuildTable() {
	m, err := mzqos.NewModel(mzqos.ModelConfig{
		Disk:        mzqos.QuantumViking21(),
		Sizes:       mzqos.PaperSizes(),
		RoundLength: 1.0,
	})
	if err != nil {
		panic(err)
	}
	tbl, err := mzqos.BuildTable(m, []mzqos.Guarantee{
		{Threshold: 0.001},
		{Threshold: 0.01},
		{Rounds: 1200, Glitches: 12, Threshold: 0.01},
	})
	if err != nil {
		panic(err)
	}
	for _, e := range tbl.Entries() {
		fmt.Printf("N_max=%d  %s\n", e.NMax, e.Guarantee)
	}
	// Output:
	// N_max=25  P[round late] <= 0.001
	// N_max=26  P[round late] <= 0.01
	// N_max=28  P[>=12 glitches in 1200 rounds] <= 0.01
}

// ExampleModel_GSSSweep evaluates Group Sweeping Scheduling's
// buffer/throughput trade-off.
func ExampleModel_GSSSweep() {
	m, err := mzqos.NewModel(mzqos.ModelConfig{
		Disk:        mzqos.QuantumViking21(),
		Sizes:       mzqos.PaperSizes(),
		RoundLength: 1.0,
	})
	if err != nil {
		panic(err)
	}
	rs, err := m.GSSSweep([]int{1, 2, 4}, 0.01)
	if err != nil {
		panic(err)
	}
	for _, r := range rs {
		fmt.Printf("G=%d: admit %d streams, %.0f KB buffer per stream\n",
			r.Groups, r.AdmittedN, r.BufferPerStream/mzqos.KB)
	}
	// Output:
	// G=1: admit 26 streams, 400 KB buffer per stream
	// G=2: admit 22 streams, 300 KB buffer per stream
	// G=4: admit 16 streams, 250 KB buffer per stream
}

// ExampleNewServer runs one admission decision on a striped server.
func ExampleNewServer() {
	srv, err := mzqos.NewServer(mzqos.ServerConfig{
		Disk:        mzqos.QuantumViking21(),
		NumDisks:    2,
		RoundLength: 1.0,
		Sizes:       mzqos.PaperSizes(),
		Guarantee:   mzqos.Guarantee{Threshold: 0.01},
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	if err := srv.AddSyntheticObject("news", 120); err != nil {
		panic(err)
	}
	id, delay, err := srv.Open("news")
	if err != nil {
		panic(err)
	}
	fmt.Printf("stream %d admitted with %d rounds startup delay\n", id, delay)
	fmt.Printf("capacity: %d streams across %d disks\n", srv.Capacity(), srv.NumDisks())
	// Output:
	// stream 1 admitted with 0 rounds startup delay
	// capacity: 52 streams across 2 disks
}

// ExamplePlanRoundLength sizes the scheduling round for a stream-count
// target.
func ExamplePlanRoundLength() {
	t, err := mzqos.PlanRoundLength(
		mzqos.QuantumViking21(),
		200*mzqos.KB, // per-stream bandwidth
		0.5,          // bandwidth coefficient of variation
		0.01,         // lateness threshold
		30,           // target streams per disk
		0.25, 8,      // round-length search range
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("30 streams need rounds of about %.1f s\n", t)
	// Output:
	// 30 streams need rounds of about 1.7 s
}

// ExampleNewCluster puts two servers behind a coordinator. Open starts the
// stream on a shard with room, Step runs one round on every shard, and
// Close stops the stream; Tickets sums the shards' open streams.
func ExampleNewCluster() {
	shards := make([]mzqos.Engine, 2)
	for i := range shards {
		srv, err := mzqos.NewServer(mzqos.ServerConfig{
			Disk:        mzqos.QuantumViking21(),
			NumDisks:    2,
			RoundLength: 1.0,
			Sizes:       mzqos.PaperSizes(),
			Guarantee:   mzqos.Guarantee{Threshold: 0.01},
			Seed:        uint64(i + 1),
		})
		if err != nil {
			panic(err)
		}
		shards[i] = srv
	}
	cl, err := mzqos.NewCluster(mzqos.ClusterConfig{Engines: shards})
	if err != nil {
		panic(err)
	}
	sizes := make([]float64, 120)
	for i := range sizes {
		sizes[i] = 200 * mzqos.KB
	}
	if err := cl.AddObject("news", sizes); err != nil {
		panic(err)
	}
	h, delay, err := cl.Open("news")
	if err != nil {
		panic(err)
	}
	fmt.Printf("stream %d on shard %d with %d rounds startup delay\n", h.ID, h.Shard, delay)
	rep := cl.Step()
	fmt.Printf("round %d: %d glitches\n", rep.Round, rep.Glitches)
	fmt.Printf("tickets before close: %d\n", cl.Tickets())
	if err := cl.Close(h); err != nil {
		panic(err)
	}
	fmt.Printf("tickets after close: %d\n", cl.Tickets())
	// Output:
	// stream 1 on shard 0 with 0 rounds startup delay
	// round 0: 0 glitches
	// tickets before close: 1
	// tickets after close: 0
}

// ExampleParseFaultPlan slows both disks of a server 1.5-fold from round 5
// on. With degradation enabled the server re-derives N_max against the
// slower disks once the fault has lasted DegradeConfig.After rounds.
func ExampleParseFaultPlan() {
	plan, err := mzqos.ParseFaultPlan("latency:disk=all,from=5,factor=1.5", 1)
	if err != nil {
		panic(err)
	}
	srv, err := mzqos.NewServer(mzqos.ServerConfig{
		Disk:        mzqos.QuantumViking21(),
		NumDisks:    2,
		RoundLength: 1.0,
		Sizes:       mzqos.PaperSizes(),
		Guarantee:   mzqos.Guarantee{Threshold: 0.01},
		Seed:        1,
		Faults:      &plan,
		Degrade:     mzqos.DegradeConfig{Enabled: true, After: 3},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("N_max before the fault: %d\n", srv.PerDiskLimit())
	srv.Run(10)
	fmt.Printf("N_max inside the fault: %d (degraded: %v)\n", srv.PerDiskLimit(), srv.Degraded())
	// Output:
	// N_max before the fault: 26
	// N_max inside the fault: 16 (degraded: true)
}
