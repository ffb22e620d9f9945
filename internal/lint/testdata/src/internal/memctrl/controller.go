// Package memctrl is a miniature stand-in for the real
// internal/memctrl: the Controller method set and a Config hook field
// that hookcheck's contract names, so the golden hook packages can
// install hooks and re-enter the request path.
package memctrl

// Request is one queued request handle.
type Request struct{}

// Config carries the round-completion hook, like the real Config.
type Config struct {
	OnRNGRound func(words int)
}

// Controller mirrors the real controller's hook-relevant surface.
// Credits stands in for its mutable queue/mode state.
type Controller struct {
	Cfg     Config
	Credits int
}

// Tick advances the controller one memory cycle.
func (c *Controller) Tick() {}

// SubmitRead enqueues a demand read.
func (c *Controller) SubmitRead(core int) {}

// SubmitWrite enqueues a demand write.
func (c *Controller) SubmitWrite(core int) {}

// SubmitRNG enqueues an RNG request.
func (c *Controller) SubmitRNG(core, words int) {}

// Recycle returns a completed request to the freelist.
func (c *Controller) Recycle(r *Request) {}

// OnRNGRound registers the round-completion hook.
func (c *Controller) OnRNGRound(fn func(int)) {}

// SetEntropySuspect is the sanctioned health-monitor reentry.
func (c *Controller) SetEntropySuspect(v bool) {}
