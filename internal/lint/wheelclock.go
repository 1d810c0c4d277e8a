package lint

import (
	"go/ast"
	"go/types"

	"ghm/internal/lint/analysis"
)

// wheelclockScope is the set of runtime packages whose pacing and
// timestamps must ride the injected clock (and its shared timer wheel).
// The engine owns the wheel; the netlink stations, the session layer,
// the supervisor and the relay mesh are its clients; the outbox and mux
// (which builds lanes as one station) read no clock and are pinned so the
// virtual-clock harness can rely on that. Simulation-side
// packages (chaos schedules real wall-clock work; sim and the
// experiments keep their own time) are deliberately out of scope, as is
// ghm/internal/clock itself — it is the one place allowed to touch the
// runtime clock.
var wheelclockScope = map[string]bool{
	"ghm/internal/engine":    true,
	"ghm/internal/netlink":   true,
	"ghm/internal/supervise": true,
	"ghm/internal/session":   true,
	"ghm/internal/relay":     true,
	"ghm/internal/outbox":    true,
	"ghm/internal/mux":       true,
}

// wheelclockBanned are the runtime-timer constructors, blockers and
// wall-clock reads that bypass the injected clock. The timer forms
// either spawn a runtime timer per call (After/Tick leak them until
// they fire) or park the calling goroutine — and in engine push
// handlers the calling goroutine is the shared pump. The read forms
// (Now/Since/Until) split the component's notion of time from the clock
// that paces it, which under a virtual clock silently mixes frozen
// virtual timestamps with advancing wall ones.
var wheelclockBanned = map[string]string{
	"After":     "time.After leaks a runtime timer per call and blocks the goroutine",
	"Tick":      "time.Tick leaks a ticker",
	"Sleep":     "time.Sleep parks the goroutine (on the pump path, every endpoint on the conn)",
	"NewTimer":  "runtime timers bypass the shared wheel's pacing and accounting",
	"NewTicker": "runtime tickers bypass the shared wheel",
	"AfterFunc": "time.AfterFunc spawns a goroutine per firing outside the wheel",
	"Now":       "wall-clock reads desync from the injected clock (virtual time stands still)",
	"Since":     "time.Since reads the wall clock; diff Clock.Now timestamps instead",
	"Until":     "time.Until reads the wall clock; subtract Clock.Now from the deadline instead",
}

// Wheelclock enforces the runtime-layering rule: inside the engine, the
// netlink stations and the supervisor, all pacing arms the shared hashed
// timer wheel (engine.Wheel) instead of creating runtime timers. The
// wheel is one goroutine and one ticker for any number of timers, its
// clock-derived catch-up keeps pacing faithful under load, and
// per-station runtime timers would cost a goroutine per station.
var Wheelclock = &analysis.Analyzer{
	Name: "wheelclock",
	Doc: `forbid runtime timers and wall-clock reads (time.Now/Until/After/Sleep/...) in wheel territory

In ghm/internal/{engine,netlink,supervise,session,relay,outbox,mux},
retry and backoff pacing must arm the shared timer wheel
(engine.Wheel.AfterFunc / Timer.Reset) and timestamps must come from the
injected clock (clock.Clock.Now) so the whole layer runs unmodified under
virtual time. time.After, time.Tick, time.Sleep, time.NewTimer,
time.NewTicker, time.AfterFunc, time.Now, time.Since and time.Until are
reported. Code with a documented reason to touch the runtime clock
carries a //lint:allow wheelclock directive.`,
	Run: runWheelclock,
}

func runWheelclock(pass *analysis.Pass) error {
	if !wheelclockScope[passPath(pass)] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcObjOf(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods like time.Time.After are fine
			}
			if why, banned := wheelclockBanned[fn.Name()]; banned {
				pass.Reportf(call.Pos(),
					"time.%s in %s: %s; arm the shared timer wheel (engine.Wheel) instead",
					fn.Name(), passPath(pass), why)
			}
			return true
		})
	}
	return nil
}
