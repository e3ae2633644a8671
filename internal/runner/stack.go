package runner

import (
	"fmt"
	"math"
	"slices"

	"flexmap/internal/cluster"
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
// cluster, executor, DFS, RM, tracer and fabric, plus the optional fault
// injector and membership controller. Both paths call the same steps,
// each in its own order. That order is event-scheduling order, which
// breaks ties between same-instant events: Run starts interference before
// building its watcher, RunWorkload after.
type stack struct {
	eng        *sim.Engine
	clus       *cluster.Cluster
	interferer cluster.Interferer
	spares     []cluster.NodeID
	// seed is the scenario seed. The shared streams derive from it by
	// label with randutil.SplitSeed ("placement", "data-skew", "faults",
	// "membership"), and so do the streams of Run's one job.
	seed int64
	// deadline is the virtual time run stops at: Scenario.MaxSimTime, or
	// 30 days, a guard against scheduling bugs.
	deadline sim.Time
	// exec runs the work of every job: it is the cluster's one speed hook.
	exec       *engine.Executor
	store      *dfs.Store
	noiseSigma float64
	rm         *yarn.RM
	tracer     *trace.Tracer
	// fabric, when the cluster has a topology, serves every job: the
	// flows of concurrent jobs contend for the same links.
	fabric *net.Fabric

	injector *faults.Injector
	ctl      *elastic.Controller
}

// buildCluster calls the scenario's caller-supplied ClusterFactory and
// turns a panic inside it (a profile argument out of range, say) or a
// nil cluster into an error.
func buildCluster(sc Scenario) (c *cluster.Cluster, inf cluster.Interferer, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: %q: cluster factory: %v", sc.Name, r)
		}
	}()
	if c, inf = sc.Cluster(); c == nil {
		return nil, nil, fmt.Errorf("runner: %q: cluster factory returned no cluster", sc.Name)
	}
	return c, inf, nil
}

// newStack builds the stack from the scenario's shared fields: Name,
// Cluster, Seed, Replication, NoiseSigma, Faults (validated only),
// Membership (validated, spares only), MaxSimTime, Trace and OnFire. It
// schedules no events. A workload leaves Replication and NoiseSigma
// zero, so it gets replication 3 and DefaultNoiseSigma.
func newStack(sc Scenario) (*stack, error) {
	if err := validateFaults(sc.Name, sc.Faults); err != nil {
		return nil, err
	}
	if err := validateMembership(sc.Name, sc.Membership); err != nil {
		return nil, err
	}
	if sc.Replication < 0 {
		return nil, fmt.Errorf("runner: %q: Replication %d is negative", sc.Name, sc.Replication)
	}
	if !finiteNonNegative(float64(sc.MaxSimTime)) {
		return nil, fmt.Errorf("runner: %q: MaxSimTime %v is not finite and non-negative", sc.Name, sc.MaxSimTime)
	}
	s := &stack{eng: sim.New(), deadline: sc.MaxSimTime}
	if s.deadline == 0 {
		s.deadline = 30 * 24 * 3600
	}
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
	for _, ev := range sc.Membership.Script {
		if !slices.Contains(s.spares, ev.Node) {
			return nil, fmt.Errorf("runner: %q: membership plan Script %s event at t=%v targets node %d, which is not a provisioned spare",
				sc.Name, ev.Kind, ev.At, ev.Node)
		}
	}
	if err := validateSpeeds(sc.Name, s.clus); err != nil {
		return nil, err
	}
	if err := validateNet(sc.Name, s.clus); err != nil {
		return nil, err
	}
	s.seed = sc.Seed
	s.store = dfs.NewStore(s.clus, sc.Replication, randutil.New(randutil.SplitSeed(s.seed, "placement")))
	s.noiseSigma = sc.NoiseSigma
	if s.noiseSigma == 0 {
		s.noiseSigma = DefaultNoiseSigma
	}
	s.exec = engine.NewExecutor(s.eng, s.clus, engine.BaseIPS)
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

// validateSpeeds rejects a node whose BaseSpeed is not positive and
// finite: NaN or +Inf would run to completion and report a nonsense JCT.
func validateSpeeds(name string, c *cluster.Cluster) error {
	for _, n := range c.Nodes {
		if !(n.BaseSpeed > 0) || math.IsInf(n.BaseSpeed, 1) {
			return fmt.Errorf("runner: %q: cluster %q node %s BaseSpeed %v is not positive and finite",
				name, c.Name, n.Name, n.BaseSpeed)
		}
	}
	return nil
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
// and a mean downtime that would schedule restores at NaN or +Inf and so
// never end an outage. A zero downtime keeps its default.
func validateFaults(name string, p faults.Plan) error {
	for _, f := range []struct {
		field string
		v     float64
	}{
		{"CrashRate", p.CrashRate}, {"MeanDowntime", float64(p.MeanDowntime)},
	} {
		if !finiteNonNegative(f.v) {
			return fmt.Errorf("runner: %q: fault plan %s %v is not finite and non-negative", name, f.field, f.v)
		}
	}
	return nil
}

// validateMembership rejects a membership plan with negative spares
// (which would read as inactive and run a static fleet), whose spare
// spec would panic in cluster.AddSpares, whose rates or spot fraction
// would silently disable churn or draw nonsense (a NaN rate reads as
// inactive), whose notices or autoscaler timings would schedule releases or ticks
// at NaN or +Inf, or whose script has an event the engine cannot
// schedule in order (a time that is negative, NaN or +Inf) or the
// controller would drop (an unknown kind). A zero timing keeps its
// default. It checks every plan, active or not; newStack checks that
// script events target spares.
func validateMembership(name string, p elastic.Plan) error {
	var auto elastic.Autoscaler
	if p.Autoscale != nil {
		auto = *p.Autoscale
	}
	for _, f := range []struct {
		field string
		v     float64
	}{
		{"SpareSpec.BaseSpeed", p.SpareSpec.BaseSpeed},
		{"JoinsPerHour", p.JoinsPerHour}, {"LeavesPerHour", p.LeavesPerHour},
		{"Notice", float64(p.Notice)}, {"SpotNotice", float64(p.SpotNotice)},
		{"Autoscale.Interval", float64(auto.Interval)}, {"Autoscale.Cooldown", float64(auto.Cooldown)},
	} {
		if !finiteNonNegative(f.v) {
			return fmt.Errorf("runner: %q: membership plan %s %v is not finite and non-negative", name, f.field, f.v)
		}
	}
	if p.Spares < 0 {
		return fmt.Errorf("runner: %q: membership plan Spares %d is negative", name, p.Spares)
	}
	if p.SpareSpec.Slots < 0 {
		return fmt.Errorf("runner: %q: membership plan SpareSpec.Slots %d is negative", name, p.SpareSpec.Slots)
	}
	if auto.Streak < 0 {
		return fmt.Errorf("runner: %q: membership plan Autoscale.Streak %d is negative", name, auto.Streak)
	}
	if !(p.SpotFraction >= 0 && p.SpotFraction <= 1) {
		return fmt.Errorf("runner: %q: membership plan SpotFraction %v is outside [0, 1]", name, p.SpotFraction)
	}
	for _, ev := range p.Script {
		if !finiteNonNegative(float64(ev.At)) {
			return fmt.Errorf("runner: %q: membership plan Script event time %v is not finite and non-negative", name, ev.At)
		}
		if ev.Kind != elastic.Join && ev.Kind != elastic.Drain && ev.Kind != elastic.Spot {
			return fmt.Errorf("runner: %q: membership plan Script event at t=%v has unknown kind %s", name, ev.At, ev.Kind)
		}
	}
	return nil
}

// finiteNonNegative reports whether v is a finite number >= 0.
func finiteNonNegative(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1)
}

// newJob builds one job's driver and ApplicationMaster on the stack and
// returns the driver and the scheduler (see buildAM) the caller binds to
// receive the job's offers. The job's runtime noise and FlexMap's reduce
// bias derive from seed.
func (s *stack) newJob(spec mr.JobSpec, eng Engine, seed int64, tracer *trace.Tracer) (*engine.Driver, yarn.Scheduler, error) {
	driver, err := engine.NewDriver(s.exec, s.store, s.rm, spec)
	if err != nil {
		return nil, nil, err
	}
	driver.Net = s.fabric
	driver.Trace = tracer
	driver.Noise = randutil.New(randutil.SplitSeed(seed, "runtime-noise"))
	driver.NoiseSigma = s.noiseSigma
	sched, err := buildAM(driver, eng, randutil.SplitSeed(seed, "flexmap"))
	if err != nil {
		return nil, nil, err
	}
	if err := applyReducePlacement(driver, eng); err != nil {
		return nil, nil, err
	}
	// Result.Engine is written only here, so every label the figures
	// print and metrics.NormalizeTo keys on is an Engine.String().
	driver.Result.Engine = eng.String()
	return driver, sched, nil
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
// are armed by run. All three reach the run's drivers through target.
func (s *stack) addChurn(fp faults.Plan, mp elastic.Plan, target *engine.FaultTarget) {
	var watcher *yarn.NodeWatcher
	if fp.Active() {
		watcher = yarn.NewNodeWatcher(s.eng, s.clus, s.rm)
		watcher.Trace = s.tracer
		target.AttachWatcher(watcher)
		s.injector = faults.NewInjector(s.eng, s.clus,
			fp.Schedule(randutil.SplitSeed(s.seed, "faults"), s.clus.Size()), target)
		s.injector.Trace = s.tracer
	}
	if mp.Active() {
		s.ctl = elastic.NewController(s.eng, s.clus, s.rm, target, mp, s.spares)
		s.ctl.Trace = s.tracer
		if watcher != nil {
			s.ctl.SetWatcher(watcher)
		}
	}
}

// run arms the injector, the membership timeline and the RM, then runs
// the engine until the caller stops it at its last job's finish, or to
// the deadline.
func (s *stack) run() {
	if s.injector != nil {
		s.injector.Start()
	}
	if s.ctl != nil {
		s.ctl.Start(randutil.SplitSeed(s.seed, "membership"))
	}
	s.rm.Start()
	s.eng.RunUntil(s.deadline)
}
