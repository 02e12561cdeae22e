// Package cloud models the cloud operator GEMINI's root agent asks for
// machine replacements (§3.2, §6.2): an Auto-Scaling-Group-like service
// with a stochastic provisioning delay (4–7 minutes measured on EC2 in
// §7.3) and an optional pool of pre-allocated standby machines that make
// replacement nearly instantaneous.
package cloud

import (
	"fmt"
	"math/rand"

	"gemini/internal/simclock"
)

// Config describes the operator's behavior.
type Config struct {
	// ProvisionMin/Max bound the uniform provisioning delay for a fresh
	// machine (the paper measured 4–7 minutes on EC2 ASG).
	ProvisionMin, ProvisionMax simclock.Duration
	// Standby is the number of pre-allocated standby machines.
	Standby int
	// StandbyActivation is the (small) delay to activate a standby.
	StandbyActivation simclock.Duration
	// Seed makes provisioning delays deterministic.
	Seed int64
}

// DefaultConfig returns the §7.3 measured behavior with no standbys.
func DefaultConfig() Config {
	return Config{
		ProvisionMin:      4 * simclock.Minute,
		ProvisionMax:      7 * simclock.Minute,
		StandbyActivation: 10 * simclock.Second,
	}
}

// Validate checks the configuration. Its comparisons are negated so that
// NaN fails them too.
func (c Config) Validate() error {
	switch {
	case !(c.ProvisionMin >= 0) || !(c.ProvisionMax >= c.ProvisionMin):
		return fmt.Errorf("cloud: bad provisioning window [%v, %v]", c.ProvisionMin, c.ProvisionMax)
	case c.Standby < 0:
		return fmt.Errorf("cloud: negative standby count %d", c.Standby)
	case !(c.StandbyActivation >= 0):
		return fmt.Errorf("cloud: negative standby activation %v", c.StandbyActivation)
	}
	return nil
}

// Operator provisions replacement machines on virtual time.
type Operator struct {
	engine  *simclock.Engine
	cfg     Config
	rng     *rand.Rand
	standby int

	requests int
	viaPool  int
}

// NewOperator creates an operator bound to the simulation engine.
func NewOperator(engine *simclock.Engine, cfg Config) (*Operator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Operator{
		engine:  engine,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		standby: cfg.Standby,
	}, nil
}

// MustNewOperator is NewOperator for known-good configurations.
func MustNewOperator(engine *simclock.Engine, cfg Config) *Operator {
	o, err := NewOperator(engine, cfg)
	if err != nil {
		panic(err)
	}
	return o
}

// StandbyAvailable returns the current standby pool size.
func (o *Operator) StandbyAvailable() int { return o.standby }

// Requests returns how many replacements have been requested.
func (o *Operator) Requests() int { return o.requests }

// ViaStandby returns how many replacements were served from the pool.
func (o *Operator) ViaStandby() int { return o.viaPool }

// provisionDelay draws a fresh-machine provisioning delay.
func (o *Operator) provisionDelay() simclock.Duration {
	span := o.cfg.ProvisionMax - o.cfg.ProvisionMin
	if span == 0 {
		return o.cfg.ProvisionMin
	}
	return o.cfg.ProvisionMin + simclock.Duration(o.rng.Float64())*span
}

// RequestReplacement asks for a replacement machine for the failed rank.
// ready fires when the machine is available, with the delay it took.
// If a standby machine is available it activates almost immediately and
// a background request refills the pool (§6.2 "Standby machines").
func (o *Operator) RequestReplacement(rank int, ready func(delay simclock.Duration)) {
	if ready == nil {
		panic("cloud: nil ready callback")
	}
	o.requests++
	if o.standby > 0 {
		o.standby--
		o.viaPool++
		delay := o.cfg.StandbyActivation
		o.engine.After(delay, func() { ready(delay) })
		// Refill the pool in the background.
		o.engine.After(o.provisionDelay(), func() { o.standby++ })
		return
	}
	delay := o.provisionDelay()
	o.engine.After(delay, func() { ready(delay) })
}
