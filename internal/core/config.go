package core

import (
	"fmt"
	"runtime"

	"loopsched/internal/topology"
)

// BarrierKind selects the synchronisation substrate of the scheduler.
type BarrierKind int

// Barrier kinds.
const (
	// BarrierTree uses a topology-aligned tree barrier (the paper's choice).
	BarrierTree BarrierKind = iota
	// BarrierCentralized uses a single-counter centralized barrier
	// ("fine-grain centralized" in Table 1).
	BarrierCentralized
)

// String implements fmt.Stringer.
func (k BarrierKind) String() string {
	switch k {
	case BarrierTree:
		return "tree"
	case BarrierCentralized:
		return "centralized"
	default:
		return fmt.Sprintf("BarrierKind(%d)", int(k))
	}
}

// Mode selects between the half-barrier pattern and the conventional
// full-barrier pattern (the "fine-grain tree with full-barrier" ablation).
type Mode int

// Modes.
const (
	// ModeHalf uses one release wave at the fork and one join wave at the
	// join: the paper's half-barrier pattern.
	ModeHalf Mode = iota
	// ModeFull uses a full barrier at the fork and a full barrier at the
	// join, i.e. it re-inserts the redundant phases.
	ModeFull
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeHalf:
		return "half-barrier"
	case ModeFull:
		return "full-barrier"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures the fine-grain scheduler.
type Config struct {
	// Workers is the team size P including the master; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Barrier selects the synchronisation substrate.
	Barrier BarrierKind
	// Mode selects half- versus full-barrier synchronisation.
	Mode Mode
	// InnerFanout and OuterFanout tune the tree shape (children per node
	// within a topology group and across group roots). Values < 2 pick the
	// defaults (4 and 4).
	InnerFanout int
	OuterFanout int
	// GroupSize overrides the number of workers assumed to share a cache
	// domain when building the tree; <= 0 uses the topology default.
	GroupSize int
	// LockOSThread locks worker goroutines to OS threads (default true via
	// DefaultConfig). Tests that create many schedulers disable it.
	LockOSThread bool
	// Steal selects the work-stealing iteration policy for coarse loops:
	// For and ForReduceVec over at least coarseThreshold iterations hand
	// out stealable ranges instead of static blocks (see the package doc).
	Steal bool
	// Name overrides the scheduler's reported name.
	Name string
}

// DefaultConfig returns the paper's default configuration: a tree
// half-barrier scheduler over all available processors.
func DefaultConfig() Config {
	return Config{
		Workers:      runtime.GOMAXPROCS(0),
		Barrier:      BarrierTree,
		Mode:         ModeHalf,
		InnerFanout:  4,
		OuterFanout:  4,
		LockOSThread: true,
	}
}

// normalize fills in defaults and returns the worker count and topology.
func (c *Config) normalize() (int, topology.Topology) {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.InnerFanout < 2 {
		c.InnerFanout = 4
	}
	if c.OuterFanout < 2 {
		c.OuterFanout = 4
	}
	var topo topology.Topology
	if c.GroupSize > 0 {
		topo = topology.New(c.Workers, c.GroupSize)
	} else {
		topo = topology.Detect(c.Workers)
	}
	return c.Workers, topo
}

// defaultName derives the benchmark-facing name of a configuration.
func (c Config) defaultName() string {
	if c.Name != "" {
		return c.Name
	}
	switch {
	case c.Barrier == BarrierTree && c.Mode == ModeHalf && c.Steal:
		return "hybrid"
	case c.Barrier == BarrierTree && c.Mode == ModeHalf:
		return "fine-grain-tree"
	case c.Barrier == BarrierCentralized && c.Mode == ModeHalf:
		return "fine-grain-centralized"
	case c.Barrier == BarrierTree && c.Mode == ModeFull:
		return "fine-grain-tree-full-barrier"
	default:
		return "fine-grain-centralized-full-barrier"
	}
}
