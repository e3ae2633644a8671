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

	// nodes holds the job's state on each node it ran on, never on the
	// whole fleet.
	nodes cluster.NodeTable[jobNode]
	// runningList is RunningMaps' list, stale after any launch,
	// completion or kill until the next call rebuilds it.
	runningList  []*MapAttempt
	runningStale bool
	totalInter   int64
	partitions   []map[string][]string // live intermediate data per reducer, made on first emit

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

	// Attempt storage comes in chunks (see newAttempt and newReduceRun):
	// attempts and reduceRuns are the unused tails of the current chunks,
	// launched counts the map attempts handed out, and expectedMaps is how
	// many the job is known to launch — the stock AM's split count, 0 when
	// unknown.
	attempts     []MapAttempt
	reduceRuns   []reduceRun
	reduceNames  []string // by partition
	launched     int
	expectedMaps int
	// emit is the live mapper's partitioning emit function, built once.
	emit func(k, v string)
}

// jobNode is a job's state on one node.
type jobNode struct {
	// running lists the node's in-flight map attempts ordered by Task
	// (insertion sort on arrival, in-place shift on removal), so that
	// RunningMaps lists them with no per-call sort.
	running []*MapAttempt
	// inter is the committed intermediate bytes resident on the node.
	inter int64
	// launches counts the map attempts the job's AttemptBook launched on
	// the node, for wave numbering.
	launches int
}

// interOn returns the committed intermediate bytes resident on a node.
func (d *Driver) interOn(id cluster.NodeID) int64 {
	if n := d.nodes.Get(id); n != nil {
		return n.inter
	}
	return 0
}

// runningOn returns the node's in-flight map attempts, ordered by Task.
// The slice is the driver's: read it, do not keep or modify it.
func (d *Driver) runningOn(id cluster.NodeID) []*MapAttempt {
	if n := d.nodes.Get(id); n != nil {
		return n.running
	}
	return nil
}

// OnFinished registers a hook invoked when the job fully completes or
// fails: the job's heartbeat stops there, and the runner stops the
// engine there once the run's last job is done.
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
		crashedPending: make(map[cluster.NodeID][]*MapAttempt),
		crashedReduces: make(map[cluster.NodeID][]int),
		firstBU:        input.BUs[0],
		buCommits:      make([]int, len(input.BUs)),
		buSeen:         make([]bool, len(input.BUs)),
		runningReduce:  make(map[cluster.NodeID][]*reduceRun),
	}
	// A job runs on at most one node per input BU, retries and
	// speculative copies aside.
	d.nodes.SetFleet(c.Size())
	d.nodes.Reserve(min(c.Size(), len(input.BUs)))
	if spec.NumReducers > 0 {
		d.partitions = make([]map[string][]string, spec.NumReducers)
	}
	if spec.Mapper != nil {
		d.emit = d.liveEmit()
	}
	return d, nil
}

// attemptPhase tracks where a map attempt is in its lifecycle.
type attemptPhase uint8

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
	Container   yarn.Container // the slot the attempt holds, granted at launch
	BUs         []dfs.BUID
	LocalBUs    int
	Bytes       int64
	RemoteBytes int64
	Wave        int
	Start       sim.Time
	Speculative bool

	phase       attemptPhase
	killed      bool
	d           *Driver
	step        func()  // advance, bound once at launch
	unit        float64 // unitCost: every factor is fixed at launch
	phaseEndsAt sim.Time
	phaseEv     sim.Handle
	work        Work // the compute phase
	fetchDur    sim.Duration
	fetchStart  sim.Time
	extraFetch  int64
	flows       []*net.Flow
	flowsLeft   int
	fetched     int64 // remote bytes actually transferred (see finishFetch)
	computeAt   sim.Time
	crash       *crashSnapshot // nil unless a fault terminated the attempt
	onDone      func(*MapAttempt)
	// liveBuf backs the book's live list of the attempt's task when this
	// attempt is the task's first live copy.
	liveBuf [2]*MapAttempt
}

// crashSnapshot is SplitBUs and ProcessedBytes at the instant an attempt
// crashed, taken before the work is canceled, because a canceled Work's
// progress is meaningless afterwards.
type crashSnapshot struct {
	done, remaining []dfs.BUID
	processed       int64
}

// MapLaunch parameterizes Driver.LaunchMap. AttemptBook.Launch fills in
// Wave and OnDone.
type MapLaunch struct {
	Task        string
	TaskID      TaskID
	Node        *cluster.Node
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

// LaunchMap acquires a container on l.Node and starts a map attempt in
// it: fixed overhead, then remote fetch, then speed-dependent compute.
func (d *Driver) LaunchMap(l MapLaunch) *MapAttempt {
	if len(l.BUs) == 0 {
		panic("engine: LaunchMap with empty split")
	}
	if l.Node.Down() {
		panic("engine: LaunchMap on a down node — the RM must not offer crashed capacity")
	}
	a := d.newAttempt()
	// Fill the zeroed slot field by field: assigning a composite literal
	// would move the whole struct through the write barrier.
	a.Task, a.TaskID, a.Node = l.Task, l.TaskID, l.Node
	a.BUs, a.LocalBUs, a.Wave, a.Speculative = l.BUs, l.LocalBUs, l.Wave, l.Speculative
	a.Start, a.d, a.onDone = d.Eng.Now(), d, l.OnDone
	d.RM.Acquire(l.Node, &a.Container)
	noise := d.drawNoise()
	a.step = a.advance
	remote := l.ExtraFetchBytes
	for i, id := range l.BUs {
		size := d.Store.Size(id)
		a.Bytes += size
		if i >= l.LocalBUs {
			remote += size
		}
	}
	a.RemoteBytes = remote
	a.extraFetch = l.ExtraFetchBytes
	a.unit = d.Spec.MapCost * SpillMultiplier(a.Bytes) * noise * d.Store.MeanWeight(a.BUs)
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
	a.phaseEv = d.Eng.After(Overhead, "map-overhead", a.step)
	return a
}

// newAttempt hands out zeroed storage for one map attempt from the
// driver's current chunk, so a launch allocates no attempt of its own. A
// new chunk holds the attempts the job is still known to launch (the
// stock AM's splits). Past those it grows geometrically, by an eighth of
// the attempts launched beyond them and at least minChunk, so the unused
// tail of the last chunk stays small. maxChunk bounds the storage one
// live attempt keeps reachable. Slots are never reused: a chunk is freed
// once no attempt in it is reachable.
func (d *Driver) newAttempt() *MapAttempt {
	if len(d.attempts) == 0 {
		n := d.expectedMaps - d.launched
		if n <= 0 {
			n = max(minChunk, (d.launched-d.expectedMaps)/8)
		}
		d.attempts = make([]MapAttempt, min(n, maxChunk))
	}
	a := &d.attempts[0]
	d.attempts = d.attempts[1:]
	d.launched++
	return a
}

// minChunk and maxChunk bound an attempt chunk: 8 attempts are under
// 4 KB, 1024 under half a megabyte.
const (
	minChunk = 8
	maxChunk = 1024
)

// advance is the attempt's one event callback, bound once at launch as
// step. It runs when the overhead ends, when a flat-model fetch ends or
// a fabric fetch flow drains, and at work-done.
func (a *MapAttempt) advance() {
	switch a.phase {
	case phaseOverhead:
		if a.RemoteBytes == 0 {
			// Fully-local split: nothing to move, so no fetch phase — go
			// straight to compute instead of scheduling a dead
			// zero-duration "map-fetch" event.
			a.beginCompute()
			return
		}
		a.beginFetch()
	case phaseFetch:
		if a.d.Net != nil {
			// One of the attempt's fetch streams drained.
			if a.flowsLeft--; a.flowsLeft > 0 {
				return
			}
		}
		a.finishFetch()
	case phaseCompute:
		a.d.Exec.finish(&a.work)
		a.complete()
	}
}

func (a *MapAttempt) beginFetch() {
	a.phase = phaseFetch
	d := a.d
	if d.Net == nil {
		a.phaseEndsAt = d.Eng.Now() + sim.Time(a.fetchDur)
		a.phaseEv = d.Eng.After(a.fetchDur, "map-fetch", a.step)
		return
	}
	// Topology model: one flow per distinct source node for replica
	// reads, plus one aggregate cross-rack flow for extra input movement
	// (SkewTune-style repartition traffic has no single source).
	a.fetchStart = d.Eng.Now()
	for _, src := range d.fetchSources(a) {
		a.flows = append(a.flows, d.Net.StartFlow(src.node, a.Node.ID, src.bytes, a.Task, a.step))
	}
	if a.extraFetch > 0 {
		a.flows = append(a.flows, d.Net.StartAggFlow(net.AllRemoteRacks, a.Node.ID, a.extraFetch, a.Task, a.step))
	}
	a.flowsLeft = len(a.flows)
	if a.flowsLeft == 0 {
		// Remote bytes with no live replica source are modeled as free.
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
		size := d.Store.Size(id)
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
	a.d.Exec.Start(&a.work, a.Node, units, a.step)
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
		bytes += d.Store.Size(id)
		d.buCommits[id-d.firstBU]++
		d.buSeen[id-d.firstBU] = true
	}
	inter := int64(float64(bytes) * d.Spec.ShuffleRatio)
	d.nodes.Put(node).inter += inter
	d.totalInter += inter
	d.Trace.Commit(node, len(bus), inter)
	if d.Spec.Mapper == nil {
		return inter
	}
	for _, id := range bus {
		if content := d.Store.Content(id); content != nil {
			d.Spec.Mapper(content, d.emit)
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
		if d.partitions[p] == nil {
			d.partitions[p] = make(map[string][]string)
		}
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
// crash or drain preemption) and snapshots the BU split for recovery.
func (a *MapAttempt) kill(crashed bool) bool {
	if a.phase == phaseDone || a.killed {
		return false
	}
	now := a.d.Eng.Now()
	if crashed {
		processed := a.ProcessedBytes(now)
		done, remaining := a.splitAt(processed)
		a.crash = &crashSnapshot{done: done, remaining: remaining, processed: processed}
	}
	a.killed = true
	// In phaseCompute the handle is stale (the fetch event already
	// fired); Cancel on a stale handle is a guaranteed no-op.
	a.phaseEv.Cancel()
	var effective sim.Duration
	if a.phase == phaseCompute {
		a.d.Exec.Cancel(&a.work)
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
func (a *MapAttempt) Crashed() bool { return a.crash != nil }

// CrashSplit returns the BU split snapshotted at the instant the attempt
// crashed: the fully-processed prefix and the unprocessed remainder. It
// returns nil, nil for an attempt that did not crash.
func (a *MapAttempt) CrashSplit() (done, remaining []dfs.BUID) {
	if a.crash == nil {
		return nil, nil
	}
	return a.crash.done, a.crash.remaining
}

// CrashProcessedBytes returns the input bytes the attempt had processed
// at the instant it crashed — the work a whole-split re-execution wastes.
// It is 0 for an attempt that did not crash.
func (a *MapAttempt) CrashProcessedBytes() int64 {
	if a.crash == nil {
		return 0
	}
	return a.crash.processed
}

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
		cum += a.d.Store.Size(id)
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
		through -= a.d.Store.Size(id)
	}
	return through > processed
}

// addRunning inserts a into the node's running slice, keeping it ordered
// by Task. Lists are at most a few slots long, so the insertion shift is
// a handful of pointer moves; once warm the append reuses capacity and
// allocates nothing.
func (d *Driver) addRunning(id cluster.NodeID, a *MapAttempt) {
	n := d.nodes.Put(id)
	s := append(n.running, a)
	i := len(s) - 1
	for i > 0 && s[i-1].Task > a.Task {
		s[i] = s[i-1]
		i--
	}
	s[i] = a
	n.running = s
	d.runningStale = true
}

// removeRunning deletes a from the node's running slice in place,
// preserving Task order.
func (d *Driver) removeRunning(id cluster.NodeID, a *MapAttempt) {
	n := d.nodes.Get(id)
	s := n.running
	for i, cand := range s {
		if cand == a {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			n.running = s[:len(s)-1]
			d.runningStale = true
			return
		}
	}
}

// RunningMaps returns every in-flight map attempt, in NodeID order and
// by task ID within a node. The list is rebuilt only after a launch,
// completion or kill has changed the running set, so the probes of one
// instant share it, and a caller walks it with no callback per attempt.
// The slice belongs to the driver: read it, do not keep or modify it.
func (d *Driver) RunningMaps() []*MapAttempt {
	if d.runningStale {
		d.runningList = d.runningList[:0]
		for i := range d.nodes.Slots() {
			if _, n := d.nodes.Slot(i); n != nil {
				d.runningList = append(d.runningList, n.running...)
			}
		}
		d.runningStale = false
	}
	return d.runningList
}
