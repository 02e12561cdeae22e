package cluster

import "fmt"

// MachineState is a machine's health.
type MachineState int

const (
	// Healthy means the machine is training normally.
	Healthy MachineState = iota
	// SoftwareFailed means the training process crashed but the hardware
	// and CPU memory survive (§6.1): checkpoints remain accessible.
	SoftwareFailed
	// HardwareFailed means the machine is gone — its CPU-memory
	// checkpoints are lost and the machine must be replaced.
	HardwareFailed
)

func (s MachineState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case SoftwareFailed:
		return "software-failed"
	case HardwareFailed:
		return "hardware-failed"
	default:
		return fmt.Sprintf("MachineState(%d)", int(s))
	}
}

// Machine is one rank slot in the training cluster. Replacement machines
// reuse the slot's rank (§6.2 case 1) but carry a new incarnation number,
// so stale references to the dead machine are detectable.
type Machine struct {
	Rank        int
	Incarnation int
	Type        InstanceType
	state       MachineState
}

// State returns the machine's health state.
func (m *Machine) State() MachineState { return m.state }

// Healthy reports whether the machine is training normally.
func (m *Machine) Healthy() bool { return m.state == Healthy }

// Cluster is a fixed-size set of rank slots, each occupied by a machine.
// GEMINI targets static synchronous training, so the slot count never
// changes; failed machines are replaced in place.
type Cluster struct {
	machines []*Machine
	itype    InstanceType
}

// New creates a cluster of n machines of the given type.
func New(n int, itype InstanceType) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one machine, got %d", n)
	}
	if err := itype.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{machines: make([]*Machine, n), itype: itype}
	for i := range c.machines {
		c.machines[i] = &Machine{Rank: i, Type: itype, state: Healthy}
	}
	return c, nil
}

// MustNew is New for statically-known-good parameters.
func MustNew(n int, itype InstanceType) *Cluster {
	c, err := New(n, itype)
	if err != nil {
		panic(err)
	}
	return c
}

// Size returns the number of rank slots.
func (c *Cluster) Size() int { return len(c.machines) }

// Machine returns the machine currently occupying the given rank slot.
func (c *Cluster) Machine(rank int) *Machine {
	if rank < 0 || rank >= len(c.machines) {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, len(c.machines)))
	}
	return c.machines[rank]
}

// Fail transitions a machine into the given failed state.
func (c *Cluster) Fail(rank int, state MachineState) {
	if state != SoftwareFailed && state != HardwareFailed {
		panic(fmt.Sprintf("cluster: Fail with non-failure state %v", state))
	}
	m := c.Machine(rank)
	// A hardware failure dominates a software failure; the reverse
	// transition is meaningless.
	if m.state == HardwareFailed {
		return
	}
	m.state = state
}

// Restart clears a software failure: the same machine resumes training.
// Restarting a hardware-failed machine is an error — it needs Replace.
func (c *Cluster) Restart(rank int) error {
	m := c.Machine(rank)
	switch m.state {
	case SoftwareFailed:
		m.state = Healthy
		return nil
	case Healthy:
		return nil
	default:
		return fmt.Errorf("cluster: rank %d is %v and cannot simply restart", rank, m.state)
	}
}

// Replace installs a fresh machine in the rank slot, bumping the
// incarnation. The new machine starts healthy with empty CPU memory:
// whatever checkpoints the old machine held are gone.
func (c *Cluster) Replace(rank int) *Machine {
	old := c.Machine(rank)
	fresh := &Machine{
		Rank:        rank,
		Incarnation: old.Incarnation + 1,
		Type:        c.itype,
		state:       Healthy,
	}
	c.machines[rank] = fresh
	return fresh
}
