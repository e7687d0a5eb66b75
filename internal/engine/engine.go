// Package engine defines the round-engine contract of a cluster shard: a
// component that owns a catalog of continuous objects, admits streams
// under the analytic N_max discipline, and executes round-based SCAN
// scheduling one Step at a time.
//
// There is one engine, the striped server (internal/server). The
// interface exists for what sits around it: the cluster coordinator
// (internal/cluster), to which a shard is an Engine plus placement
// metadata, and decorators that wrap a shard's engine to observe it, such
// as the benchmark's timing wrapper. The coordinator admits on each
// engine's own Active count and keeps no count of its own. The report
// types (RoundReport, RunSummary) live here so the server and every layer
// above it speak the same vocabulary; internal/server aliases them under
// its historical names.
package engine

import (
	"errors"

	"mzqos/internal/slo"
)

// Shared error conditions. Engine implementations wrap these with their
// own package prefix, so callers (the cluster coordinator in particular)
// can classify failures with errors.Is without knowing which engine
// served the call.
var (
	// ErrRejected is returned when admission control turns a stream away.
	ErrRejected = errors.New("admission control rejected the stream")
	// ErrUnknownObject is returned for opens of objects not in the catalog.
	ErrUnknownObject = errors.New("unknown object")
	// ErrUnknownStream is returned for operations on closed or unknown
	// streams.
	ErrUnknownStream = errors.New("unknown stream")
	// ErrDuplicateObject is returned when an object name is already taken.
	ErrDuplicateObject = errors.New("object already exists")
)

// StreamID identifies an open stream within one engine. Identity is local
// to the engine: a cluster-wide stream is the (shard, StreamID) pair.
type StreamID int64

// Fragment is one display round of a clip as the catalog keeps it,
// 16 bytes: its size, and for each of two replicas the cylinder and zone
// that replica placed it at. Fragment k is the same display round on
// every replica, so the size is one fact the pair shares, and only the
// placement is per replica: a clip on R replicas keeps ⌈R/2⌉ tables
// (Tables), and a standalone server fills slot 0 of one. Cylinder and
// zone stay unpacked: Step's gather reads them once per due stream per
// round, mostly from cold memory, and a shift-and-mask decode there costs
// more than the bytes it saves.
type Fragment struct {
	Size float64
	Cyl  [2]uint16
	Zone [2]uint8
}

// MaxCylinders and MaxZones are the largest disk a Fragment addresses:
// an engine turns away a disk with more cylinders or zones than these.
const (
	MaxCylinders = 1 << 16
	MaxZones     = 1 << 8
)

// Tables returns the fragment tables of a clip with the given sizes on
// replicas engines: ⌈replicas/2⌉ tables, every size filled in, nothing
// placed. Replica i places into slot i%2 of table i/2 (PlaceObject).
func Tables(sizes []float64, replicas int) [][]Fragment {
	tables := make([][]Fragment, (replicas+1)/2)
	for t := range tables {
		tables[t] = make([]Fragment, len(sizes))
		for k, sz := range sizes {
			tables[t][k].Size = sz
		}
	}
	return tables
}

// StreamState is the resumable state of one stream: everything a sibling
// replica needs to continue playback where the exporting engine left off.
// Fragment k of an object denotes the same display round on every replica
// (replicas share one size per fragment, see Fragment), so Position is
// portable across engines even though each replica stripes and places its
// fragments independently.
type StreamState struct {
	// Object is the catalog name of the object being played.
	Object string `json:"object"`
	// Position is the index of the next fragment to consume (how many
	// display rounds of the object have been served so far).
	Position int `json:"position"`
	// Delay is the accumulated startup-delay credit in rounds: the
	// admission-time slotting delays this stream has been charged so far,
	// including by previous engines. An importing engine adds its own
	// slotting delay on top, so the paper's per-stream startup-delay
	// accounting (§2.3) survives migration.
	Delay int `json:"delay"`
	// Served and Glitches carry the stream's service-quality history so
	// the per-stream glitch guarantee is still measured over the whole
	// playback, not restarted by the move.
	Served   int `json:"served"`
	Glitches int `json:"glitches"`
}

// RetainedStreams sizes the ledger a standalone server builds when handed
// none, and so how many retired streams keep their stats queryable there.
const RetainedStreams = 1024

// Engine is one admission-controlled round engine. Mutating operations
// (PlaceObject, Open, Close, Step, Recalibrate) are not safe for
// concurrent use; drive them from one goroutine per engine — the shard
// loop. The Health snapshot is the exception: it reads atomic state only,
// so heartbeat collectors may call it concurrently with the loop.
type Engine interface {
	// CheckObject returns the error PlaceObject would refuse the object
	// with (a bad name or size, a name the catalog holds), placing
	// nothing, so a caller can check every replica before any places.
	CheckObject(name string, frags []Fragment) error
	// PlaceObject stores a continuous object whose per-round fragments
	// frags holds (sizes in bytes), drawing this engine's placement of
	// each into its slot (0 or 1) of the record. The engine keeps frags:
	// the replica placing into the other slot shares it, and neither
	// writes it again. A refused object draws nothing.
	PlaceObject(name string, frags []Fragment, slot int) error
	// Open admits a new stream on the named object or rejects it, and
	// reports the startup delay in rounds.
	Open(name string) (id StreamID, startupDelay int, err error)
	// Close stops a stream early, releasing its admission slot.
	Close(id StreamID) error
	// Step executes one scheduling round.
	Step() RoundReport
	// Recalibrate re-derives the admission limit from observed workload
	// statistics (§5) and reports the old and new per-disk limits.
	Recalibrate(minSamples int64) (oldLimit, newLimit int, err error)
	// Active returns the number of open streams, read on the loop: the
	// count a coordinator admits on (N in the §5 test N + 1 ≤ N_max).
	Active() int
	// Health returns a concurrent-safe load/limit snapshot for heartbeat
	// collectors and other readers off the loop (read from atomic state,
	// never the loop's own fields).
	Health() Health

	// ExportStream captures an active stream's resumable state and
	// withdraws the stream from this engine: its slot is freed and nothing
	// is recorded as finished — it continues elsewhere. A stream the engine
	// sheds itself is no longer active: its state leaves in the round
	// report's Evicted, which is where a coordinator takes it from to turn
	// the eviction into a migration.
	ExportStream(id StreamID) (StreamState, error)
	// ImportStream re-admits a stream mid-playback: admission control
	// applies as in Open, but playback resumes at state.Position and the
	// reported startupDelay is only the *additional* slotting delay this
	// engine charges (the state's accumulated credit is carried forward).
	ImportStream(state StreamState) (id StreamID, startupDelay int, err error)
	// ActiveStreams returns the open-stream ids in ascending order — the
	// drain list a coordinator walks when failing over an entire shard.
	ActiveStreams() []StreamID
}

// Health is the heartbeat view of one engine: the load and limits a
// cluster coordinator caches between refreshes. All fields are captured
// from atomic state, so collecting a Health never races the engine loop.
type Health struct {
	// Active is the number of open streams.
	Active int `json:"active"`
	// PerDiskLimit is the admission limit N_max per disk currently in
	// force (degraded limits included); Capacity is D·N_max.
	PerDiskLimit int `json:"per_disk_limit"`
	Capacity     int `json:"capacity"`
	// Round counts executed rounds.
	Round int `json:"round"`
	// Degraded marks fault-degraded limits in force.
	Degraded bool `json:"degraded"`
	// Failed marks admission closed by disk failure: the engine cannot
	// serve its streams at all, so a coordinator should fail its active
	// set over to sibling replicas. Failed implies Degraded and Capacity
	// 0, whatever refit the engine has made since. Distinct from a
	// capacity that merely degraded to zero (Capacity 0, Failed false),
	// where existing streams still ride out the fault on their own shard
	// and only new admissions are shed to siblings.
	Failed bool `json:"failed"`
	// SLO is the engine's windowed guarantee-audit snapshot, piggybacked
	// on the heartbeat so a cluster coordinator can pool the shards'
	// window counts and test the pool without extra collection machinery.
	// Zero (Enabled false) when the engine runs no audit.
	SLO slo.Health `json:"slo"`
}

// DiskRoundReport is the outcome of one disk's sweep in one round.
type DiskRoundReport struct {
	// Requests is the number of fragments due on the disk.
	Requests int
	// Busy is the total service time of the sweep in seconds; it equals
	// Seek + Rotation + Transfer, the three phases of eq. 3.1.1 (zero when
	// the disk is Down).
	Busy float64
	// Seek, Rotation, and Transfer break Busy down by service phase.
	// Rotation includes any extra revolutions paid for read-error retries.
	Seek, Rotation, Transfer float64
	// Late is the number of requests that finished after the round end.
	Late int
	// Faulty marks a round in which a fault effect was active on the disk.
	Faulty bool
	// Retries is the number of extra revolutions paid re-reading after
	// transient read errors.
	Retries int
	// Lost is the number of fragments not delivered at all: reads that
	// exhausted their in-round retries, or every request of a Down disk.
	Lost int
	// Down marks a round in which the disk was fully failed.
	Down bool
}

// RoundReport is the outcome of one engine round.
type RoundReport struct {
	// Round is the executed round index.
	Round int
	// Disks holds one report per disk.
	Disks []DiskRoundReport
	// Glitches is the total number of late or lost fragments across disks.
	Glitches int
	// Completed lists streams that consumed their last fragment, in
	// ascending StreamID order.
	Completed []StreamID
	// Evicted lists streams shed by the degraded-mode controller this
	// round, each with the resumable state it left with (ascending
	// StreamID order, empty unless degradation is enabled and the
	// admission limit shrank below a class's occupancy).
	Evicted []Eviction
}

// Eviction is one stream a round shed: its id on the shedding engine and
// its resumable state, which a sibling replica's ImportStream takes.
type Eviction struct {
	ID    StreamID
	State StreamState
}

// RunSummary aggregates a multi-round execution.
type RunSummary struct {
	// FirstRound is the round index the run started at.
	FirstRound int
	// Rounds is the number of rounds executed.
	Rounds int
	// Requests is the total fragments served.
	Requests int
	// Glitches is the total late or lost fragments.
	Glitches int
	// Lost is the subset of Glitches that were never delivered at all
	// (read errors past their retry budget, or a failed disk).
	Lost int
	// Completed is the number of streams that finished playback.
	Completed int
	// Evicted is the number of streams shed by the degraded-mode
	// controller.
	Evicted int
	// PeakDiskLoad is the largest per-disk per-round request count seen.
	PeakDiskLoad int
	// BusyTime is the summed disk service time; DiskTime the summed
	// capacity (rounds × round length × disks). Their ratio is utilization.
	BusyTime, DiskTime float64
}

// Utilization returns BusyTime/DiskTime (0 when no time has passed).
func (r RunSummary) Utilization() float64 {
	if r.DiskTime == 0 {
		return 0
	}
	return r.BusyTime / r.DiskTime
}

// GlitchRate returns Glitches/Requests (0 when idle).
func (r RunSummary) GlitchRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Glitches) / float64(r.Requests)
}

// Observe folds one round report into the summary (the shared aggregation
// behind every engine's Run).
func (r *RunSummary) Observe(rep RoundReport) {
	r.Rounds++
	r.Glitches += rep.Glitches
	r.Completed += len(rep.Completed)
	r.Evicted += len(rep.Evicted)
	for _, dr := range rep.Disks {
		r.Requests += dr.Requests
		r.BusyTime += dr.Busy
		r.Lost += dr.Lost
		if dr.Requests > r.PeakDiskLoad {
			r.PeakDiskLoad = dr.Requests
		}
	}
}
