package runner

import (
	"fmt"
	"math"

	"flexmap/internal/cluster"
	"flexmap/internal/core"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/engine"
	"flexmap/internal/faults"
	"flexmap/internal/mr"
	"flexmap/internal/net"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
	"flexmap/internal/yarn"
)

// stack is the simulator assembly Run and RunWorkload share: engine,
// cluster, DFS, RM, tracer and fabric, plus the optional liveness
// watcher, fault injector and membership controller. Both paths call the
// same steps, each in its own order. That order is event-scheduling
// order, which breaks ties between same-instant events: Run starts
// interference before building its watcher, RunWorkload after.
type stack struct {
	eng        *sim.Engine
	clus       *cluster.Cluster
	interferer cluster.Interferer
	spares     []cluster.NodeID
	rng        *randutil.Source
	store      *dfs.Store
	cost       engine.CostModel
	noiseSigma float64
	rm         *yarn.RM
	tracer     *trace.Tracer
	// fabric, when the cluster has a topology, serves every job: the
	// flows of concurrent jobs contend for the same links.
	fabric *net.Fabric

	watcher  *yarn.NodeWatcher
	injector *faults.Injector
	ctl      *elastic.Controller
}

// buildCluster calls the scenario's caller-supplied ClusterFactory and
// turns a panic inside it (a profile argument out of range, say) into an
// error.
func buildCluster(sc Scenario) (c *cluster.Cluster, inf cluster.Interferer, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: %q: cluster factory: %v", sc.Name, r)
		}
	}()
	c, inf = sc.Cluster()
	return c, inf, nil
}

// newStack builds the stack from the scenario's shared fields: Name,
// Cluster, Seed, Replication, Cost, NoiseSigma, Faults (validated only),
// Membership (validated, spares only), Trace and OnFire. It schedules no
// events.
func newStack(sc Scenario) (*stack, error) {
	if err := validateFaults(sc.Name, sc.Faults); err != nil {
		return nil, err
	}
	if err := validateMembership(sc.Name, sc.Membership); err != nil {
		return nil, err
	}
	s := &stack{eng: sim.New()}
	if sc.OnFire != nil {
		s.eng.SetFireObserver(sc.OnFire)
	}
	var err error
	if s.clus, s.interferer, err = buildCluster(sc); err != nil {
		return nil, err
	}
	if s.clus.Size() == 0 {
		return nil, fmt.Errorf("runner: %q: cluster %q has no nodes", sc.Name, s.clus.Name)
	}
	// Spares must exist before anything sizes per-node state off the
	// cluster (DFS placement, RM slots, drivers, topology racks); they
	// start offline, store no blocks, and draw no randomness, so the base
	// fleet's run is untouched until a join fires.
	if sc.Membership.Active() {
		s.spares = s.clus.AddSpares(sc.Membership.Spares, sc.Membership.SpareSpec)
	}
	if err := validateNet(sc.Name, s.clus); err != nil {
		return nil, err
	}
	s.rng = randutil.New(sc.Seed)
	s.store = dfs.NewStore(s.clus, sc.Replication, s.rng.Split("placement"))
	s.cost = sc.Cost
	if s.cost == (engine.CostModel{}) {
		s.cost = engine.DefaultCostModel()
	}
	s.noiseSigma = sc.NoiseSigma
	if s.noiseSigma == 0 {
		s.noiseSigma = DefaultNoiseSigma
	}
	s.rm = yarn.NewRM(s.eng, s.clus)
	if sc.Trace.Enabled() {
		s.tracer = trace.New(s.eng)
	}
	if s.clus.Topology != nil {
		fabric, err := net.New(s.eng, s.clus)
		if err != nil {
			return nil, err
		}
		fabric.Trace = s.tracer
		s.fabric = fabric
	}
	return s, nil
}

// validateNet rejects network parameters that would silently produce
// degenerate transfer durations: a flat NetBW that is not positive and
// finite, or a topology spec with empty racks or degenerate links.
func validateNet(name string, c *cluster.Cluster) error {
	if !(c.NetBW > 0) || math.IsInf(c.NetBW, 0) {
		return fmt.Errorf("runner: %q: cluster %q NetBW %v MB/s is not positive and finite (fetch durations would be 0, +Inf or NaN)",
			name, c.Name, c.NetBW)
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(c.NetBW); err != nil {
			return fmt.Errorf("runner: %q: %w", name, err)
		}
	}
	return nil
}

// validateFaults rejects fault rates that would silently disable
// injection (negative or NaN) or collapse every arrival onto t=0 (+Inf),
// and mean durations or slow factors that would schedule restores at NaN
// or +Inf and so never end an outage. Zero durations and factors keep
// their defaults.
func validateFaults(name string, p faults.Plan) error {
	for _, f := range []struct {
		field string
		v     float64
	}{
		{"CrashRate", p.CrashRate}, {"SlowdownRate", p.SlowdownRate}, {"PreemptRate", p.PreemptRate},
		{"MeanDowntime", float64(p.MeanDowntime)}, {"MeanSlowdown", float64(p.MeanSlowdown)},
	} {
		if !finiteNonNegative(f.v) {
			return fmt.Errorf("runner: %q: fault plan %s %v is not finite and non-negative", name, f.field, f.v)
		}
	}
	if math.IsNaN(p.MinSlowFactor) || math.IsNaN(p.MaxSlowFactor) {
		return fmt.Errorf("runner: %q: fault plan has a NaN slow factor (min %v, max %v)", name, p.MinSlowFactor, p.MaxSlowFactor)
	}
	return nil
}

// validateMembership rejects a membership plan whose spare spec would
// panic in cluster.AddSpares, or whose rates or spot fraction would
// silently disable churn or draw nonsense (a NaN rate reads as inactive).
// It checks every plan, active or not.
func validateMembership(name string, p elastic.Plan) error {
	for _, f := range []struct {
		field string
		v     float64
	}{
		{"SpareSpec.BaseSpeed", p.SpareSpec.BaseSpeed},
		{"JoinsPerHour", p.JoinsPerHour}, {"LeavesPerHour", p.LeavesPerHour},
	} {
		if !finiteNonNegative(f.v) {
			return fmt.Errorf("runner: %q: membership plan %s %v is not finite and non-negative", name, f.field, f.v)
		}
	}
	if p.SpareSpec.Slots < 0 {
		return fmt.Errorf("runner: %q: membership plan SpareSpec.Slots %d is negative", name, p.SpareSpec.Slots)
	}
	if !(p.SpotFraction >= 0 && p.SpotFraction <= 1) {
		return fmt.Errorf("runner: %q: membership plan SpotFraction %v is outside [0, 1]", name, p.SpotFraction)
	}
	return nil
}

// finiteNonNegative reports whether v is a finite number >= 0.
func finiteNonNegative(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1)
}

// newJob builds one job's driver and ApplicationMaster on the stack. rng
// seeds the job's runtime noise and FlexMap's reduce bias; register, when
// non-nil, receives the AM's registration instead of the RM. The returned
// *core.AM is non-nil only for FlexMap.
func (s *stack) newJob(spec mr.JobSpec, eng Engine, rng *randutil.Source, tracer *trace.Tracer,
	register func(yarn.Scheduler)) (*engine.Driver, *core.AM, error) {

	driver, err := engine.NewDriver(s.eng, s.clus, s.store, s.rm, s.cost, spec)
	if err != nil {
		return nil, nil, err
	}
	driver.RegisterScheduler = register
	driver.Net = s.fabric
	driver.Trace = tracer
	driver.Noise = rng.Split("runtime-noise")
	driver.NoiseSigma = s.noiseSigma
	flexAM, err := buildAM(driver, eng, rng.Split("flexmap"))
	if err != nil {
		return nil, nil, err
	}
	if err := applyReducePlacement(driver, eng); err != nil {
		return nil, nil, err
	}
	// The engine label is authoritative here: StockAM names itself
	// "hadoop-<split>m" whether or not speculation is enabled, which
	// would collide in comparisons that include the no-spec ablation.
	driver.Result.Engine = eng.String()
	return driver, flexAM, nil
}

// startInterference arms the cluster's interference process, if any.
func (s *stack) startInterference() {
	if s.interferer != nil {
		s.interferer.Start(s.eng)
	}
}

// addChurn builds the liveness watcher and fault injector when the fault
// plan is active, and the membership controller when the membership plan
// is. The watcher's ticker is armed here; the injector and controller
// are armed by run. target receives the injected faults.
func (s *stack) addChurn(fp faults.Plan, mp elastic.Plan, target faults.Target) {
	if fp.Active() {
		s.watcher = yarn.NewNodeWatcher(s.eng, s.clus, s.rm)
		s.watcher.Trace = s.tracer
		s.injector = faults.NewInjector(s.eng, s.clus,
			fp.Schedule(s.rng.Split("faults").Seed(), s.clus.Size()), target)
		s.injector.Trace = s.tracer
	}
	if mp.Active() {
		s.ctl = elastic.NewController(s.eng, s.clus, s.rm, mp, s.spares)
		s.ctl.Trace = s.tracer
		if s.watcher != nil {
			s.ctl.SetWatcher(s.watcher)
		}
	}
}

// stop halts every ticker and timeline so the event queue drains.
func (s *stack) stop() {
	if s.interferer != nil {
		s.interferer.Stop()
	}
	if s.watcher != nil {
		s.watcher.Stop()
	}
	if s.injector != nil {
		s.injector.Stop()
	}
	if s.ctl != nil {
		s.ctl.Stop()
	}
}

// run arms the injector, the membership timeline and the RM, then runs
// the engine to maxSimTime (default 30 days, a guard against scheduling
// bugs). It returns the deadline used.
func (s *stack) run(maxSimTime sim.Time) sim.Time {
	if s.injector != nil {
		s.injector.Start()
	}
	if s.ctl != nil {
		s.ctl.Start(s.rng.Split("membership").Seed())
	}
	s.rm.Start()
	deadline := maxSimTime
	if deadline == 0 {
		deadline = 30 * 24 * 3600
	}
	s.eng.RunUntil(deadline)
	return deadline
}

// nodeHours is machine-hours consumed up to until: the whole fleet on a
// static cluster; base nodes plus each spare's joined intervals on an
// elastic one.
func (s *stack) nodeHours(until sim.Time) float64 {
	if s.ctl != nil {
		return s.ctl.NodeHours(until)
	}
	return float64(s.clus.Size()) * float64(until) / 3600
}
