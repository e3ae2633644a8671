package cluster

import (
	"fmt"

	"flexmap/internal/randutil"
)

// PaperSlots is the container-slot count per worker in the paper-testbed
// profiles. The evaluation machines run four concurrent 1 GB containers
// each — the job scale (Table II inputs over these containers) then
// matches the paper's observed wave counts, e.g. Fig. 7(a) completing the
// vertical-scaling ramp just as the 10 GB histogram-ratings map phase
// ends.
const PaperSlots = 4

// VirtualSlots is the per-VM container count of the virtual cluster
// (4 vCPU / 4 GB VMs hold two 1.5 GB containers).
const VirtualSlots = 2

// Relative per-core speeds assigned to the hardware generations of
// Table I, with the OPTIPLEX 990 (Core 2) as the slow baseline. The
// spread is calibrated against Fig. 1(a): with ~2 s of fixed per-task
// overhead, a raw speed ratio of ~2.8× makes the slowest 64 MB map task
// run about twice as long as the fastest, as the paper measures.
const (
	speedOptiplex = 1.0
	speedT110     = 1.5
	speedT320     = 2.4
	speedT430     = 2.8
)

// Physical12 reproduces the 12-node heterogeneous physical cluster of
// Table I: 2× PowerEdge T320, 1× PowerEdge T430, 2× PowerEdge T110 and
// 7× OPTIPLEX 990.
func Physical12() *Cluster {
	var specs []NodeSpec
	add := func(count int, class string, speed float64, slots int) {
		for i := 0; i < count; i++ {
			specs = append(specs, NodeSpec{
				Name:      fmt.Sprintf("%s-%d", class, i),
				Class:     class,
				BaseSpeed: speed,
				Slots:     slots,
			})
		}
	}
	add(2, "PowerEdge T320", speedT320, PaperSlots)
	add(1, "PowerEdge T430", speedT430, PaperSlots)
	add(2, "PowerEdge T110", speedT110, PaperSlots)
	add(7, "OPTIPLEX 990", speedOptiplex, PaperSlots)
	return NewCluster("physical-12", specs)
}

// Virtual20 reproduces the 20-node virtual cluster in the university
// cloud: homogeneous 4-vCPU VMs whose performance varies dynamically due
// to interference from co-located tenants. Attach the returned Interferer
// to the simulation engine before running a job. Roughly 20% of nodes are
// interfered at any instant, slowed 2–5×, matching Fig. 1(b).
func Virtual20(seed int64) (*Cluster, *RandomInterference) {
	specs := make([]NodeSpec, 20)
	for i := range specs {
		specs[i] = NodeSpec{Name: fmt.Sprintf("vm-%02d", i), Class: "HP BL460c VM", BaseSpeed: 1.0, Slots: VirtualSlots}
	}
	c := NewCluster("virtual-20", specs)
	inf := &RandomInterference{
		Cluster: c,
		RNG:     randutil.New(randutil.SplitSeed(seed, "virtual20-interference")),
	}
	return c, inf
}

// MultiTenant40 reproduces the 40-node multi-tenant cluster with a given
// fraction of nodes slowed by co-running CPU-intensive background jobs
// (Fig. 8 uses fractions 0.05, 0.10, 0.20 and 0.40). Slowed nodes run at
// about a third of full speed for the entire job.
func MultiTenant40(slowFraction float64, seed int64) (*Cluster, Interferer) {
	if !(slowFraction >= 0 && slowFraction <= 1) {
		panic(fmt.Sprintf("cluster: slow fraction %v out of [0,1]", slowFraction))
	}
	specs := make([]NodeSpec, 40)
	for i := range specs {
		specs[i] = NodeSpec{Name: fmt.Sprintf("mt-%02d", i), Class: "Xeon E5-2640", BaseSpeed: 1.0, Slots: PaperSlots}
	}
	c := NewCluster(fmt.Sprintf("multitenant-40-%d%%", int(slowFraction*100+0.5)), specs)

	rng := randutil.New(randutil.SplitSeed(seed, "multitenant-slow-picks"))
	numSlow := int(float64(len(specs))*slowFraction + 0.5)
	mults := make(map[NodeID]float64, numSlow)
	for _, idx := range rng.PickN(len(specs), numSlow) {
		// Co-runner contention: ~3× slowdown with mild variation.
		mults[NodeID(idx)] = rng.Jitter(0.33, 0.15)
	}
	return c, NewStaticInterference(c, mults)
}

// HomogeneousPaper returns an n-node uniform cluster with the paper
// profiles' slot count, used for the Fig. 3(b,c) task-size study and the
// §IV-D overhead experiment.
func HomogeneousPaper(n int) *Cluster {
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Name: fmt.Sprintf("homo-%02d", i), Class: "uniform", BaseSpeed: 1.0, Slots: PaperSlots}
	}
	return NewCluster(fmt.Sprintf("homogeneous-%d", n), specs)
}

// Homogeneous returns an n-node cluster of identical machines with the
// default two slots per node (the generic unit-test cluster).
func Homogeneous(n int) *Cluster {
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Name: fmt.Sprintf("homo-%02d", i), Class: "uniform", BaseSpeed: 1.0, Slots: 2}
	}
	return NewCluster(fmt.Sprintf("homogeneous-%d", n), specs)
}

// Heterogeneous6 returns the 6-node heterogeneous cluster used for
// Fig. 3(d): a mix of the Table I hardware generations.
func Heterogeneous6() *Cluster {
	return NewCluster("heterogeneous-6", []NodeSpec{
		{Name: "het-fast", Class: "PowerEdge T430", BaseSpeed: speedT430, Slots: PaperSlots},
		{Name: "het-mid-0", Class: "PowerEdge T320", BaseSpeed: speedT320, Slots: PaperSlots},
		{Name: "het-mid-1", Class: "PowerEdge T110", BaseSpeed: speedT110, Slots: PaperSlots},
		{Name: "het-slow-0", Class: "OPTIPLEX 990", BaseSpeed: speedOptiplex, Slots: PaperSlots},
		{Name: "het-slow-1", Class: "OPTIPLEX 990", BaseSpeed: speedOptiplex, Slots: PaperSlots},
		{Name: "het-slow-2", Class: "OPTIPLEX 990", BaseSpeed: speedOptiplex, Slots: PaperSlots},
	})
}

// Motivating3 returns the 3-node 1:1:3 capacity example of Fig. 2 (two
// slow nodes, one fast node, single slot each).
func Motivating3() *Cluster {
	return NewCluster("motivating-3", []NodeSpec{
		{Name: "slow-0", BaseSpeed: 1.0, Slots: 1},
		{Name: "slow-1", BaseSpeed: 1.0, Slots: 1},
		{Name: "fast", BaseSpeed: 3.0, Slots: 1},
	})
}
