// Package fault is the deterministic failpoint framework of the
// production-hardening layer: named injection sites threaded through the
// sharded engine, the incremental resolver, and the serving daemon, armed
// by seeded per-site schedules so every chaos experiment is replayable.
//
// A layer declares a site once at wiring time (Registry.Site, nil-safe —
// a nil registry yields a nil site) and visits it at the failure boundary
// it models: the engine's round barrier, a resolver repair move, a
// snapshot write. A visit to a disarmed site is a nil check and nothing
// else — no allocation, no atomic, no lock — which is what keeps the
// warmed-session AllocsPerRun == 0 pins and the tdbench CPU-time bounds
// intact with the hooks compiled in. An armed site counts visits
// under its own lock and fires according to its Schedule: at an exact
// visit number, every N-th visit, with seeded probability, or any
// combination, capped by Max.
//
// Every fire is appended to the registry's trace, so two runs with the
// same seed, schedules, and (single-threaded) visit order produce
// identical traces — the determinism the injection suites pin. What a
// fire *does* is the visiting layer's contract: the engine turns
// KindCrash into a worker panic recovered at the round barrier, the
// resolver turns any firing into a rolled-back delta, the daemon turns a
// snapshot-site firing into a skipped write. See each layer's
// documentation and ARCHITECTURE.md §"Failure model and recovery".
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind selects what a firing failpoint does at its site.
type Kind uint8

// The failure modes a Schedule can inject.
const (
	// KindError surfaces the fire as an error wrapping ErrInjected; the
	// layer aborts the operation cleanly (the resolver rolls the delta
	// back, the engine aborts the run at the quiescent barrier).
	KindError Kind = iota
	// KindCrash models a crash: the engine panics the scheduled worker
	// (recovered at the barrier, surfacing as a local.WorkerCrashError);
	// layers without a panic boundary treat it as KindError.
	KindCrash
	// KindStall models a slow shard or a slow operation: the site sleeps
	// for Schedule.Delay and then continues normally.
	KindStall
)

// String names the kind as in ParseSpec ("error", "crash", "stall").
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindCrash:
		return "crash"
	case KindStall:
		return "stall"
	}
	return fmt.Sprintf("fault.Kind(%d)", uint8(k))
}

// ErrInjected is the sentinel every injected failure wraps; test and
// recovery code uses errors.Is(err, ErrInjected) to distinguish injected
// faults from organic ones.
var ErrInjected = errors.New("fault: injected failure")

// Fault describes one firing of a site.
type Fault struct {
	// Site is the site's registered name.
	Site string
	// Visit is the 1-based visit number that fired.
	Visit int64
	// Kind is the configured failure mode.
	Kind Kind
	// Delay is the stall duration (KindStall only).
	Delay time.Duration
}

// Err returns the fault in error form, wrapping ErrInjected.
func (f Fault) Err() error {
	return fmt.Errorf("fault: site %s fired %s at visit %d: %w", f.Site, f.Kind, f.Visit, ErrInjected)
}

// Panic is the panic value of an injected KindCrash; it implements error
// and unwraps to ErrInjected so a recovered crash still matches
// errors.Is(err, ErrInjected) through whatever wrapping the recovery
// path adds.
type Panic struct {
	// Fault is the firing that raised the panic.
	Fault Fault
}

// Error describes the injected crash.
func (p *Panic) Error() string {
	return fmt.Sprintf("fault: injected crash at site %s (visit %d)", p.Fault.Site, p.Fault.Visit)
}

// Unwrap ties the panic into the ErrInjected chain.
func (p *Panic) Unwrap() error { return ErrInjected }

// Schedule decides which visits to a site fire. The three triggers
// compose with OR; a zero Schedule never fires.
type Schedule struct {
	// Kind is the failure mode of every fire from this schedule.
	Kind Kind
	// TriggerAt fires on exactly this 1-based visit number (0 disables).
	TriggerAt int64
	// Every fires on every Every-th visit (0 disables).
	Every int64
	// P fires each visit with this probability, drawn from the site's
	// seeded splitmix64 stream (0 disables).
	P float64
	// Max caps the total number of fires from this site (0 = unlimited).
	Max int64
	// Delay is the sleep of a KindStall fire.
	Delay time.Duration
}

// Event is one trace entry: a fire that happened.
type Event struct {
	// Site, Visit, and Kind identify the fire as in Fault.
	Site  string
	Visit int64
	Kind  Kind
}

// Registry holds the named failpoints of one run. Layers declare sites
// through it, operators arm them with schedules, and the trace records
// every fire in order. Safe for concurrent use; a nil *Registry is a
// valid "everything disabled" registry.
type Registry struct {
	mu    sync.Mutex
	seed  int64
	sites map[string]*Site
	trace []Event
}

// NewRegistry returns an empty registry whose per-site probability
// streams derive from seed — same seed, same schedules, same visit
// order means the same fires.
func NewRegistry(seed int64) *Registry {
	return &Registry{seed: seed, sites: make(map[string]*Site)}
}

// Site returns the named site, declaring it (disarmed) on first use.
// Nil-safe: a nil registry returns a nil site, whose visits cost a nil
// check and can never fire. Layers call this once at wiring time and
// keep the pointer.
func (r *Registry) Site(name string) *Site {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sites[name]
	if s == nil {
		s = &Site{reg: r, name: name, rng: splitmix(uint64(r.seed) ^ hashName(name))}
		r.sites[name] = s
	}
	return s
}

// Arm declares (if needed) and arms the named site with the given
// schedule, resetting its fire cap but not its visit counter.
func (r *Registry) Arm(name string, sched Schedule) *Site {
	s := r.Site(name)
	s.mu.Lock()
	s.sched = sched
	s.fires = 0
	s.armed = true
	s.mu.Unlock()
	return s
}

// Disarm disables the named site; its visit counter freezes until it is
// armed again.
func (r *Registry) Disarm(name string) {
	if r == nil {
		return
	}
	if s := r.Site(name); s != nil {
		s.mu.Lock()
		s.armed = false
		s.mu.Unlock()
	}
}

// Sites lists the declared site names, sorted.
func (r *Registry) Sites() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.sites))
	for n := range r.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Trace returns a copy of the fire log in order. Two runs with the same
// seed, schedules, and visit order produce identical traces.
func (r *Registry) Trace() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.trace...)
}

// record appends a fire to the trace.
func (r *Registry) record(e Event) {
	r.mu.Lock()
	r.trace = append(r.trace, e)
	r.mu.Unlock()
}

// Site is one named injection point. The zero value is unusable; obtain
// sites from a Registry. All methods are nil-safe so disabled builds pay
// a nil check and nothing else.
type Site struct {
	reg  *Registry
	name string

	mu     sync.Mutex
	armed  bool
	sched  Schedule
	visits int64
	fires  int64
	rng    uint64
}

// Name returns the site's registered name ("" for a nil site).
func (s *Site) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Hit records a visit and reports whether the site fires, returning the
// fault to apply. The caller owns the failure mode: the engine panics
// its scheduled worker on KindCrash, sleeps on KindStall. Disarmed or
// nil sites never fire and do not count visits.
func (s *Site) Hit() (Fault, bool) {
	if s == nil {
		return Fault{}, false
	}
	s.mu.Lock()
	if !s.armed {
		s.mu.Unlock()
		return Fault{}, false
	}
	s.visits++
	fire := false
	sc := &s.sched
	if sc.Max == 0 || s.fires < sc.Max {
		if sc.TriggerAt > 0 && s.visits == sc.TriggerAt {
			fire = true
		}
		if !fire && sc.Every > 0 && s.visits%sc.Every == 0 {
			fire = true
		}
		if !fire && sc.P > 0 {
			s.rng = splitmix(s.rng)
			if float64(s.rng>>11)/(1<<53) < sc.P {
				fire = true
			}
		}
	}
	if !fire {
		s.mu.Unlock()
		return Fault{}, false
	}
	s.fires++
	f := Fault{Site: s.name, Visit: s.visits, Kind: sc.Kind, Delay: sc.Delay}
	s.mu.Unlock()
	s.reg.record(Event{Site: f.Site, Visit: f.Visit, Kind: f.Kind})
	return f, true
}

// Err records a visit and applies the fired fault in error form: a
// KindStall sleeps and returns nil, KindError and KindCrash return the
// fault's error (wrapping ErrInjected). This is the entry point of
// layers whose failure boundary is an operation that can be aborted and
// rolled back — the resolver's repair moves, the daemon's snapshot
// writes — where a modeled crash and a modeled error take the same
// recovery path.
func (s *Site) Err() error {
	f, ok := s.Hit()
	if !ok {
		return nil
	}
	if f.Kind == KindStall {
		time.Sleep(f.Delay)
		return nil
	}
	return f.Err()
}

// Intn draws a value in [0, n) from the site's seeded stream —
// deterministic victim selection (which shard crashes) after a fire.
func (s *Site) Intn(n int) int {
	if s == nil || n <= 0 {
		return 0
	}
	s.mu.Lock()
	s.rng = splitmix(s.rng)
	v := int((s.rng >> 32) * uint64(n) >> 32)
	s.mu.Unlock()
	return v
}

// splitmix is the splitmix64 step (identical to core.SplitMix64,
// duplicated to keep this package dependency-free).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashName folds a site name into the seed (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// ParseSpec parses the CLI form of an armed failpoint,
//
//	site:kind:key=value[,key=value...]
//
// where kind is error, crash, or stall, and the keys are at (TriggerAt),
// every, p, max, and delay (a Go duration, stall only). Examples:
//
//	engine/round:crash:at=12
//	resolver/repair:error:every=50,max=3
//	serve/snapshot:error:p=0.1
//	resolver/repair:stall:every=100,delay=50ms
func ParseSpec(spec string) (name string, sched Schedule, err error) {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) < 2 || parts[0] == "" {
		return "", Schedule{}, fmt.Errorf("fault: spec %q is not site:kind[:key=value,...]", spec)
	}
	name = parts[0]
	switch parts[1] {
	case "error":
		sched.Kind = KindError
	case "crash":
		sched.Kind = KindCrash
	case "stall":
		sched.Kind = KindStall
	default:
		return "", Schedule{}, fmt.Errorf("fault: spec %q has unknown kind %q (want error, crash, or stall)", spec, parts[1])
	}
	if len(parts) == 2 || parts[2] == "" {
		return "", Schedule{}, fmt.Errorf("fault: spec %q arms no trigger (add at=, every=, or p=)", spec)
	}
	for _, kv := range strings.Split(parts[2], ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", Schedule{}, fmt.Errorf("fault: spec %q has malformed option %q", spec, kv)
		}
		switch k {
		case "at":
			sched.TriggerAt, err = strconv.ParseInt(v, 10, 64)
		case "every":
			sched.Every, err = strconv.ParseInt(v, 10, 64)
		case "p":
			sched.P, err = strconv.ParseFloat(v, 64)
		case "max":
			sched.Max, err = strconv.ParseInt(v, 10, 64)
		case "delay":
			sched.Delay, err = time.ParseDuration(v)
		default:
			return "", Schedule{}, fmt.Errorf("fault: spec %q has unknown option %q", spec, k)
		}
		if err != nil {
			return "", Schedule{}, fmt.Errorf("fault: spec %q option %q: %v", spec, kv, err)
		}
	}
	if sched.TriggerAt == 0 && sched.Every == 0 && sched.P == 0 {
		return "", Schedule{}, fmt.Errorf("fault: spec %q arms no trigger (add at=, every=, or p=)", spec)
	}
	if sched.TriggerAt < 0 || sched.Every < 0 || sched.P < 0 || sched.P > 1 || sched.Max < 0 || sched.Delay < 0 {
		return "", Schedule{}, fmt.Errorf("fault: spec %q has a negative or out-of-range option", spec)
	}
	return name, sched, nil
}
