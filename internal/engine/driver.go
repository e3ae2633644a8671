package engine

import (
	"fmt"
	"hash/fnv"
	"math"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/mr"
	"flexmap/internal/net"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
	"flexmap/internal/yarn"
)

// ReducePlacer decides which node runs each reduce task. It returns a
// slice of length Spec.NumReducers. EvenReducePlacer is the stock policy;
// the FlexMap AM installs its capacity-biased policy.
type ReducePlacer func(d *Driver) []cluster.NodeID

// Driver owns the shared execution machinery for one job run: attempt
// lifecycle, shuffle bookkeeping, the reduce phase, live (real-data)
// execution, and the final JobResult. ApplicationMasters sit on top and
// make scheduling decisions only.
type Driver struct {
	Eng     *sim.Engine
	Cluster *cluster.Cluster
	Store   *dfs.Store
	RM      *yarn.RM
	Spec    mr.JobSpec
	Exec    *Executor

	// ReducePlacer defaults to EvenReducePlacer.
	ReducePlacer ReducePlacer

	// Net, when non-nil, routes every remote transfer — map fetches,
	// speculative copies, reduce shuffle streams — through the topology
	// fabric, where concurrent flows share per-link bandwidth max-min
	// fairly. Nil keeps the legacy flat model: each transfer independently
	// sees the full Cluster.NetBW, byte-identical to earlier versions.
	Net *net.Fabric

	// ReduceViaRM routes the reduce phase through RM container offers
	// instead of the solo-run shortcut of self-limiting per-node slot
	// counts. Required under multi-job sharing, where reduce capacity
	// must be arbitrated like any other container. Solo runs keep the
	// default (false) and are byte-identical to previous versions.
	ReduceViaRM bool

	// Trace, when non-nil, records the run's typed event stream (see
	// internal/trace). All emit methods are nil-safe, so the disabled
	// state costs a branch per lifecycle transition and nothing else —
	// tracing never draws randomness or schedules events, keeping traced
	// and untraced runs byte-identical in every simulation output.
	Trace *trace.Tracer

	// Noise, when non-nil, draws a lognormal per-attempt compute-cost
	// multiplier with sigma NoiseSigma, modeling the runtime variance real
	// map tasks show from disk contention, page-cache state and record
	// skew (the spread visible in the paper's Fig. 1 histograms). Nil
	// disables noise (unit-test determinism at exact timestamps).
	Noise      *randutil.Source
	NoiseSigma float64

	Result *mr.JobResult

	// Per-node hot state is struct-of-arrays: flat slices indexed by the
	// dense NodeID, so 10k-node heartbeat sweeps walk contiguous memory.
	// running slices are kept ordered by Task (insertion sort on arrival;
	// in-place shift on removal), which makes RunningMapsInto a straight
	// copy with no per-call sort or allocation.
	running     [][]*MapAttempt
	interByNode []int64
	totalInter  int64
	partitions  []map[string][]string // live intermediate data per reducer

	// Fault-recovery state. All of it is inert without fault injection:
	// nodes never go down, so nothing is ever crashed, dropped or
	// migrated, and event order is untouched.
	recovery       RecoveryHandler
	rejoinHooks    []func(cluster.NodeID)
	crashedPending map[cluster.NodeID][]*MapAttempt
	crashedReduces map[cluster.NodeID][]int
	// resident logs, in commit order, each winning attempt's output still
	// resident on its node's disk; dropResidentOutput filters out a lost
	// node's entries. It is dead once the map phase closes.
	resident []residentCommit
	// buCommits counts commits per input BU, indexed by the BU's offset
	// from firstBU (a file's BUIDs are contiguous). buSeen marks every BU
	// committed at least once, so BUCommits keeps a BU whose commits a
	// node loss dropped back to zero.
	firstBU   dfs.BUID
	buCommits []int
	buSeen    []bool

	mapPhaseStarted bool
	mapsFinished    bool
	reduceRemaining int
	reduceQueues    map[cluster.NodeID][]int
	reduceQueued    int // partitions across reduceQueues
	runningReduce   map[cluster.NodeID][]*reduceRun
	orphanReduces   []int
	finished        bool
	onFinished      []func()
}

// OnFinished registers a hook invoked when the job fully completes —
// typically to stop heartbeat and interference tickers so the event queue
// drains.
func (d *Driver) OnFinished(fn func()) { d.onFinished = append(d.onFinished, fn) }

// NewDriver assembles a driver for one job on the run's executor, whose
// engine and cluster it shares, under the calibrated cost model
// (Overhead, BaseIPS, SpillFactor). The spec must validate and its input
// file must already exist in the store. The driver does not bind an AM:
// whoever builds the job hands its scheduler to the RM.
func NewDriver(x *Executor, store *dfs.Store, rm *yarn.RM, spec mr.JobSpec) (*Driver, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	input, ok := store.File(spec.InputFile)
	if !ok {
		return nil, fmt.Errorf("engine: input file %q not in DFS", spec.InputFile)
	}
	eng, c := x.eng, x.clus
	d := &Driver{
		Eng:          eng,
		Cluster:      c,
		Store:        store,
		RM:           rm,
		Spec:         spec,
		Exec:         x,
		ReducePlacer: EvenReducePlacer,
		Result: &mr.JobResult{
			Job:                 spec.Name,
			Cluster:             c.Name,
			Submitted:           eng.Now(),
			AvailableContainers: c.TotalSlots(),
		},
		running:        make([][]*MapAttempt, c.Size()),
		interByNode:    make([]int64, c.Size()),
		crashedPending: make(map[cluster.NodeID][]*MapAttempt),
		crashedReduces: make(map[cluster.NodeID][]int),
		firstBU:        input.BUs[0],
		buCommits:      make([]int, len(input.BUs)),
		buSeen:         make([]bool, len(input.BUs)),
		runningReduce:  make(map[cluster.NodeID][]*reduceRun),
	}
	if spec.NumReducers > 0 {
		d.partitions = make([]map[string][]string, spec.NumReducers)
		for i := range d.partitions {
			d.partitions[i] = make(map[string][]string)
		}
	}
	return d, nil
}

// attemptPhase tracks where a map attempt is in its lifecycle.
type attemptPhase int

const (
	phaseOverhead attemptPhase = iota
	phaseFetch
	phaseCompute
	phaseDone
)

// MapAttempt is one execution attempt of a map task.
type MapAttempt struct {
	Task        string
	TaskID      TaskID
	Node        *cluster.Node
	Container   *yarn.Container
	BUs         []dfs.BUID
	LocalBUs    int
	Bytes       int64
	RemoteBytes int64
	Wave        int
	Speculative bool
	Start       sim.Time

	d           *Driver
	noiseMult   float64
	unit        float64 // unitCost: every factor is fixed at launch
	phase       attemptPhase
	phaseEndsAt sim.Time
	phaseEv     sim.Handle
	work        *Work
	fetchDur    sim.Duration
	fetchStart  sim.Time
	extraFetch  int64
	flows       []*net.Flow
	flowsLeft   int
	fetched     int64 // remote bytes actually transferred (see finishFetch)
	computeAt   sim.Time
	killed      bool
	crashed     bool
	// crashDone/crashRemaining/crashProcessed snapshot SplitBUs and
	// ProcessedBytes at the instant of the crash — taken before the work
	// is canceled, because a canceled Work's progress is meaningless
	// afterwards.
	crashDone      []dfs.BUID
	crashRemaining []dfs.BUID
	crashProcessed int64
	onDone         func(*MapAttempt)
}

// MapLaunch parameterizes Driver.LaunchMap. AttemptBook.Launch fills in
// Container, Wave and OnDone.
type MapLaunch struct {
	Task        string
	TaskID      TaskID
	Node        *cluster.Node
	Container   *yarn.Container
	BUs         []dfs.BUID
	LocalBUs    int
	Wave        int
	Speculative bool
	// ExtraFetchBytes models additional input movement beyond non-local
	// replica reads (SkewTune repartitioning charges moved bytes here).
	ExtraFetchBytes int64
	// OnDone fires when the attempt completes successfully; the
	// container stays held until AttemptBook.Win releases it.
	OnDone func(*MapAttempt)
}

// LaunchMap starts a map attempt: fixed overhead, then remote fetch, then
// speed-dependent compute.
func (d *Driver) LaunchMap(l MapLaunch) *MapAttempt {
	if len(l.BUs) == 0 {
		panic("engine: LaunchMap with empty split")
	}
	if l.Node.Down() {
		panic("engine: LaunchMap on a down node — the RM must not offer crashed capacity")
	}
	a := &MapAttempt{
		Task:        l.Task,
		TaskID:      l.TaskID,
		Node:        l.Node,
		Container:   l.Container,
		BUs:         l.BUs,
		LocalBUs:    l.LocalBUs,
		Wave:        l.Wave,
		Speculative: l.Speculative,
		Start:       d.Eng.Now(),
		d:           d,
		noiseMult:   d.drawNoise(),
		onDone:      l.OnDone,
	}
	remote := l.ExtraFetchBytes
	for i, id := range l.BUs {
		size := d.Store.Block(id).Size
		a.Bytes += size
		if i >= l.LocalBUs {
			remote += size
		}
	}
	a.RemoteBytes = remote
	a.extraFetch = l.ExtraFetchBytes
	a.unit = d.Spec.MapCost * SpillMultiplier(a.Bytes) * a.noiseMult * d.Store.MeanWeight(a.BUs)
	if l.Speculative {
		d.Result.SpeculativeLaunches++
	}
	if !d.mapPhaseStarted {
		d.mapPhaseStarted = true
		d.Result.MapPhaseStart = d.Eng.Now()
	}
	d.addRunning(l.Node.ID, a)
	d.Trace.MapDispatch(l.Task, l.Node.ID, l.Wave, len(l.BUs), l.LocalBUs, a.Bytes, remote, l.Speculative)

	// fetchDur is the uncontended flat-model transfer time; under the
	// topology fabric it serves as the pre-fetch estimate and is replaced
	// with the actual elapsed time once the flows drain.
	a.fetchDur = sim.Duration(float64(remote) / (d.Cluster.NetBW * float64(MB)))
	a.phase = phaseOverhead
	a.phaseEndsAt = d.Eng.Now() + sim.Time(Overhead)
	if remote == 0 {
		// Fully-local split: nothing to move, so no fetch phase — skip
		// straight from overhead to compute instead of scheduling a dead
		// zero-duration "map-fetch" event.
		a.phaseEv = d.Eng.After(Overhead, "map-overhead", func() { a.beginCompute() })
		return a
	}
	a.phaseEv = d.Eng.After(Overhead, "map-overhead", func() { a.beginFetch() })
	return a
}

func (a *MapAttempt) beginFetch() {
	a.phase = phaseFetch
	d := a.d
	if d.Net == nil {
		a.phaseEndsAt = d.Eng.Now() + sim.Time(a.fetchDur)
		a.phaseEv = d.Eng.After(a.fetchDur, "map-fetch", func() { a.finishFetch() })
		return
	}
	// Topology model: one flow per distinct source node for replica
	// reads, plus one aggregate cross-rack flow for extra input movement
	// (SkewTune-style repartition traffic has no single source).
	a.fetchStart = d.Eng.Now()
	for _, src := range d.fetchSources(a) {
		a.flows = append(a.flows, d.Net.StartFlow(src.node, a.Node.ID, src.bytes, a.Task, a.flowDone))
	}
	if a.extraFetch > 0 {
		a.flows = append(a.flows, d.Net.StartAggFlow(net.AllRemoteRacks, a.Node.ID, a.extraFetch, a.Task, a.flowDone))
	}
	a.flowsLeft = len(a.flows)
	if a.flowsLeft == 0 {
		// Remote bytes with no live replica source are modeled as free.
		a.finishFetch()
	}
}

// flowDone counts down the attempt's in-flight fetch streams.
func (a *MapAttempt) flowDone() {
	a.flowsLeft--
	if a.flowsLeft == 0 {
		a.finishFetch()
	}
}

// finishFetch closes the fetch phase. The remote bytes have now actually
// arrived, so this — not dispatch — is where they are credited to
// Result.RemoteBytesRead: a killed attempt only ever charges what it
// moved, and a retry's re-fetch is a genuinely new transfer.
func (a *MapAttempt) finishFetch() {
	d := a.d
	if d.Net != nil {
		a.fetchDur = sim.Duration(d.Eng.Now() - a.fetchStart)
		a.flows = nil
	}
	a.fetched = a.RemoteBytes
	d.Result.RemoteBytesRead += a.RemoteBytes
	a.beginCompute()
}

// fetchSrc is one aggregated remote-read stream for a map attempt.
type fetchSrc struct {
	node  cluster.NodeID
	bytes int64
}

// fetchSources groups the attempt's remote BUs by chosen source replica —
// a same-rack holder when one exists, else the lowest-ID holder — a
// deterministic stand-in for HDFS's topology-aware replica selection.
func (d *Driver) fetchSources(a *MapAttempt) []fetchSrc {
	var out []fetchSrc
	dstRack := d.Net.RackOf(a.Node.ID)
	for _, id := range a.BUs[a.LocalBUs:] {
		size := d.Store.Block(id).Size
		if size <= 0 {
			continue
		}
		src := cluster.NodeID(-1)
		srcLocalRack := false
		for _, n := range d.Store.NodesFor(id) {
			if n == a.Node.ID {
				continue
			}
			sameRack := d.Net.RackOf(n) == dstRack
			better := src < 0 ||
				(sameRack && !srcLocalRack) ||
				(sameRack == srcLocalRack && n < src)
			if better {
				src, srcLocalRack = n, sameRack
			}
		}
		if src < 0 {
			continue
		}
		merged := false
		for i := range out {
			if out[i].node == src {
				out[i].bytes += size
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, fetchSrc{node: src, bytes: size})
		}
	}
	return out
}

func (a *MapAttempt) beginCompute() {
	a.phase = phaseCompute
	a.computeAt = a.d.Eng.Now()
	units := float64(a.Bytes) * a.unitCost()
	a.work = a.d.Exec.Start(a.Node, units, func() { a.complete() })
}

// unitCost is the work units charged per input byte for this attempt:
// job map cost × sort-spill penalty × runtime noise × the split's data
// skew weight (the mean cost weight of its BUs). LaunchMap computes it
// once: the spec, cost model, byte count, noise draw, BUs and their
// weights (ApplySkew runs before any job is built) never change after
// launch, and progress probes call it on every speculation check.
func (a *MapAttempt) unitCost() float64 { return a.unit }

// drawNoise samples the per-attempt lognormal cost multiplier (1.0 when
// noise is disabled). The multiplier is normalized by exp(σ²/2) so its
// mean is 1 and noise does not change expected cluster throughput.
func (d *Driver) drawNoise() float64 {
	if d.Noise == nil || d.NoiseSigma <= 0 {
		return 1.0
	}
	return math.Exp(d.NoiseSigma*d.Noise.NormFloat64() - d.NoiseSigma*d.NoiseSigma/2)
}

func (a *MapAttempt) complete() {
	a.phase = phaseDone
	now := a.d.Eng.Now()
	a.d.removeRunning(a.Node.ID, a)
	a.d.Result.Attempts = append(a.d.Result.Attempts, mr.AttemptRecord{
		Task:        a.Task,
		Type:        mr.MapTask,
		Node:        a.Node.ID,
		Start:       a.Start,
		End:         now,
		Overhead:    Overhead,
		Effective:   a.fetchDur + sim.Duration(now-a.computeAt),
		Bytes:       a.Bytes,
		BUs:         len(a.BUs),
		LocalBUs:    a.LocalBUs,
		Wave:        a.Wave,
		Speculative: a.Speculative,
	})
	a.d.Trace.TaskDone(a.Task, a.Node.ID, a.Bytes)
	a.onDone(a)
}

// CommitOutput publishes the attempt's intermediate output for shuffling
// and runs the live mapper if one is attached. AMs call it exactly once
// per *task* (the winning attempt), never for losers of a speculation
// race — duplicated output would double shuffle volume.
//
// The committed output is *resident* on the attempt's node until the
// shuffle completes: a declared node loss before the map phase closes
// drops it again (see dropResidentOutput). Per-BU prefix commits made
// through CommitOutputForBUs stay durable — see DESIGN.md §9.
func (d *Driver) CommitOutput(a *MapAttempt) {
	inter := d.CommitOutputForBUs(a.Node.ID, a.BUs)
	d.resident = append(d.resident, residentCommit{node: a.Node.ID, bus: a.BUs, inter: inter})
}

// residentCommit is one winning attempt's output on its node's disk. bus
// aliases the attempt's split, which nothing mutates after launch.
type residentCommit struct {
	node  cluster.NodeID
	bus   []dfs.BUID
	inter int64
}

// CommitOutputForBUs publishes intermediate output for a set of BUs
// mapped on a node and returns the intermediate bytes added. SkewTune
// uses it directly to preserve the processed prefix of a stopped
// straggler; FlexMap crash recovery rescues a dead attempt's prefix the
// same way.
func (d *Driver) CommitOutputForBUs(node cluster.NodeID, bus []dfs.BUID) int64 {
	var bytes int64
	for _, id := range bus {
		bytes += d.Store.Block(id).Size
		d.buCommits[id-d.firstBU]++
		d.buSeen[id-d.firstBU] = true
	}
	inter := int64(float64(bytes) * d.Spec.ShuffleRatio)
	d.interByNode[node] += inter
	d.totalInter += inter
	d.Trace.Commit(node, len(bus), inter)
	if d.Spec.Mapper == nil {
		return inter
	}
	emit := d.liveEmit()
	for _, id := range bus {
		if content := d.Store.Content(id); content != nil {
			d.Spec.Mapper(content, emit)
		}
	}
	return inter
}

// RecordAttempt appends a synthetic attempt record (SkewTune's preserved
// prefix of a stopped straggler) so that successful records still cover
// every BU exactly once.
func (d *Driver) RecordAttempt(rec mr.AttemptRecord) {
	d.Result.Attempts = append(d.Result.Attempts, rec)
}

// liveEmit returns an emit function that partitions pairs by key hash.
func (d *Driver) liveEmit() func(k, v string) {
	return func(k, v string) {
		if d.Spec.NumReducers == 0 {
			if d.Result.Output == nil {
				d.Result.Output = make(map[string]string)
			}
			d.Result.Output[k] = v
			return
		}
		p := partitionOf(k, d.Spec.NumReducers)
		d.partitions[p][k] = append(d.partitions[p][k], v)
	}
}

func partitionOf(key string, r int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(r))
}

// Kill stops a running attempt (speculation race loss or SkewTune
// repartition). It records a killed AttemptRecord and reports false if the
// attempt had already finished or been killed. The caller releases the
// container.
func (a *MapAttempt) Kill() bool { return a.kill(false) }

// kill implements Kill; crashed marks fault-induced termination (node
// crash or container preemption) and snapshots the BU split for recovery.
func (a *MapAttempt) kill(crashed bool) bool {
	if a.phase == phaseDone || a.killed {
		return false
	}
	now := a.d.Eng.Now()
	if crashed {
		a.crashed = true
		a.crashDone, a.crashRemaining = a.SplitBUs(now)
		a.crashProcessed = a.ProcessedBytes(now)
	}
	a.killed = true
	// In phaseCompute the handle is stale (the fetch event already
	// fired); Cancel on a stale handle is a guaranteed no-op.
	a.phaseEv.Cancel()
	var effective sim.Duration
	if a.phase == phaseCompute {
		a.d.Exec.Cancel(a.work)
		effective = a.fetchDur + sim.Duration(now-a.computeAt)
	} else if a.phase == phaseFetch {
		if a.d.Net != nil {
			effective = sim.Duration(now - a.fetchStart)
		} else {
			effective = a.fetchDur - sim.Duration(a.phaseEndsAt-now)
		}
		a.cancelFetch(now, effective)
	}
	a.d.removeRunning(a.Node.ID, a)
	a.d.Result.Attempts = append(a.d.Result.Attempts, mr.AttemptRecord{
		Task:        a.Task,
		Type:        mr.MapTask,
		Node:        a.Node.ID,
		Start:       a.Start,
		End:         now,
		Overhead:    Overhead,
		Effective:   effective,
		Bytes:       a.Bytes,
		BUs:         len(a.BUs),
		LocalBUs:    a.LocalBUs,
		Wave:        a.Wave,
		Speculative: a.Speculative,
		Killed:      true,
		Crashed:     crashed,
	})
	a.d.Trace.TaskKill(a.Task, a.Node.ID, crashed)
	return true
}

// cancelFetch stops an attempt killed mid-fetch and credits exactly the
// remote bytes that actually moved before the kill: per-flow transferred
// bytes under the topology fabric, the elapsed-time pro-rata share under
// the flat model. A retry's re-fetch is a new transfer and is counted
// again when (and only when) it happens.
func (a *MapAttempt) cancelFetch(now sim.Time, elapsed sim.Duration) {
	d := a.d
	var moved int64
	if d.Net != nil {
		for _, fl := range a.flows {
			moved += d.Net.Cancel(fl)
		}
		a.flows = nil
	} else if a.fetchDur > 0 && elapsed > 0 {
		moved = int64(float64(a.RemoteBytes) * float64(elapsed) / float64(a.fetchDur))
		if moved > a.RemoteBytes {
			moved = a.RemoteBytes
		}
	}
	a.fetched = moved
	d.Result.RemoteBytesRead += moved
}

// Killed reports whether the attempt was killed.
func (a *MapAttempt) Killed() bool { return a.killed }

// Crashed reports whether the attempt was terminated by a fault.
func (a *MapAttempt) Crashed() bool { return a.crashed }

// CrashSplit returns the BU split snapshotted at the instant the attempt
// crashed: the fully-processed prefix and the unprocessed remainder. It
// is only meaningful for crashed attempts.
func (a *MapAttempt) CrashSplit() (done, remaining []dfs.BUID) {
	return a.crashDone, a.crashRemaining
}

// CrashProcessedBytes returns the input bytes the attempt had processed
// at the instant it crashed — the work a whole-split re-execution wastes.
func (a *MapAttempt) CrashProcessedBytes() int64 { return a.crashProcessed }

// Finished reports whether the attempt completed successfully.
func (a *MapAttempt) Finished() bool { return a.phase == phaseDone && !a.killed }

// ProcessedBytes returns input bytes processed by virtual time now.
func (a *MapAttempt) ProcessedBytes(now sim.Time) int64 {
	switch a.phase {
	case phaseDone:
		return a.Bytes
	case phaseCompute:
		return int64(a.work.ProcessedUnits(now) / a.unitCost())
	default:
		return 0
	}
}

// Progress returns fractional progress in [0,1].
func (a *MapAttempt) Progress(now sim.Time) float64 {
	return float64(a.ProcessedBytes(now)) / float64(a.Bytes)
}

// EstRemaining estimates time to completion assuming the node keeps its
// current speed — the estimate LATE and SkewTune schedule from.
func (a *MapAttempt) EstRemaining(now sim.Time) sim.Duration {
	rate := BaseIPS * a.Node.Speed()
	computeAll := sim.Duration(float64(a.Bytes) * a.unitCost() / rate)
	switch a.phase {
	case phaseOverhead:
		return sim.Duration(a.phaseEndsAt-now) + a.fetchDur + computeAll
	case phaseFetch:
		if a.d.Net != nil {
			// Under contention the slowest in-flight flow gates the fetch.
			var rem sim.Duration
			for _, fl := range a.flows {
				if r := fl.EstRemaining(now); r > rem {
					rem = r
				}
			}
			return rem + computeAll
		}
		return sim.Duration(a.phaseEndsAt-now) + computeAll
	case phaseCompute:
		remaining := a.work.total - a.work.ProcessedUnits(now)
		return sim.Duration(remaining / rate)
	default:
		return 0
	}
}

// SplitBUs returns the attempt's BUs partitioned into a fully-processed
// prefix and the unprocessed remainder as of now (SkewTune's repartition
// unit). A partially-read BU counts as unprocessed.
func (a *MapAttempt) SplitBUs(now sim.Time) (done, remaining []dfs.BUID) {
	return a.splitAt(a.ProcessedBytes(now))
}

// splitAt cuts the BUs before the first one whose cumulative size
// exceeds processed.
func (a *MapAttempt) splitAt(processed int64) (done, remaining []dfs.BUID) {
	var cum int64
	for i, id := range a.BUs {
		cum += a.d.Store.Block(id).Size
		if cum <= processed {
			continue
		}
		return a.BUs[:i], a.BUs[i:]
	}
	return a.BUs, nil
}

// RemainingAtLeast reports whether SplitBUs(now) would leave at least k
// unprocessed BUs, without walking the split: it sums only the last k-1
// BU sizes.
func (a *MapAttempt) RemainingAtLeast(now sim.Time, k int) bool {
	return a.remainingAtLeast(a.ProcessedBytes(now), k)
}

// remainingAtLeast is RemainingAtLeast at a given processed byte count.
// splitAt cuts at the first index i whose cumulative size exceeds
// processed, leaving len(BUs)-i BUs. Cumulative sizes never decrease, so
// i ≤ len(BUs)-k exactly when the cumulative size through BU len(BUs)-k —
// all bytes less the last k-1 BUs — exceeds processed.
func (a *MapAttempt) remainingAtLeast(processed int64, k int) bool {
	n := len(a.BUs)
	if k <= 0 {
		return true
	}
	if n < k {
		return false
	}
	through := a.Bytes
	for _, id := range a.BUs[n-k+1:] {
		through -= a.d.Store.Block(id).Size
	}
	return through > processed
}

// addRunning inserts a into the node's running slice, keeping it ordered
// by Task. Lists are at most a few slots long, so the insertion shift is
// a handful of pointer moves; once warm the append reuses capacity and
// allocates nothing.
func (d *Driver) addRunning(id cluster.NodeID, a *MapAttempt) {
	s := append(d.running[id], a)
	i := len(s) - 1
	for i > 0 && s[i-1].Task > a.Task {
		s[i] = s[i-1]
		i--
	}
	s[i] = a
	d.running[id] = s
}

// removeRunning deletes a from the node's running slice in place,
// preserving Task order.
func (d *Driver) removeRunning(id cluster.NodeID, a *MapAttempt) {
	s := d.running[id]
	for i, cand := range s {
		if cand == a {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			d.running[id] = s[:len(s)-1]
			return
		}
	}
}

// RunningMapsInto appends the node's running map attempts (ordered by
// task ID) to buf and returns the extended slice — the allocation-free
// variant the heartbeat sweep uses. The appended pointers alias live
// driver state; callers must not retain them across events.
func (d *Driver) RunningMapsInto(id cluster.NodeID, buf []*MapAttempt) []*MapAttempt {
	if int(id) < 0 || int(id) >= len(d.running) {
		return buf
	}
	return append(buf, d.running[id]...)
}

// EachRunningMap calls fn on every in-flight map attempt, in NodeID order
// and by task ID within a node, walking the per-node lists in place. fn
// must not launch, kill or complete an attempt.
func (d *Driver) EachRunningMap(fn func(*MapAttempt)) {
	for _, s := range d.running {
		for _, a := range s {
			fn(a)
		}
	}
}
