package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybridqos/internal/admission"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/faults"
	"hybridqos/internal/rng"
	"hybridqos/internal/telemetry"
)

// Serving scripts: deterministic arrival scripts for the serving entry
// point, replayed on a virtual clock. testdata/serve_golden.json holds the
// per-request outcomes and final telemetry counters these scripts produced
// on the original dedicated serving engine; TestServeGolden requires the
// serving Server to reproduce them exactly.

// scriptOp is one scripted action: a submission, or (Drain) the start of a
// graceful drain.
type scriptOp struct {
	T          float64
	Item       int
	Class      int
	DeadlineIn float64
	Drain      bool
}

// serveScript is one scenario: the engine configuration plus its ops.
type serveScript struct {
	Name      string
	D         int
	Theta     float64
	MaxLen    int
	Weights   []float64
	Cutoff    int
	Pull      string
	Alpha     float64
	Admission admission.Config
	Ops       []scriptOp
	Until     float64
}

// scriptEngine is the serving surface a script drives.
type scriptEngine interface {
	submit(item, class int, deadlineIn float64, done func(Result)) admission.Verdict
	drain(onDrained func())
	draining() bool
	pending() int
}

// goldenReq is one submission's recorded fate.
type goldenReq struct {
	Verdict string  `json:"verdict"`
	Outcome string  `json:"outcome,omitempty"`
	T       float64 `json:"t,omitempty"`
	Delay   float64 `json:"delay,omitempty"`
	Push    bool    `json:"push,omitempty"`
}

// goldenRun is one script's recorded result.
type goldenRun struct {
	Requests []goldenReq       `json:"requests"`
	Drained  []float64         `json:"drained,omitempty"`
	Pending  int               `json:"pending"`
	Counters map[string]int64  `json:"counters"`
	Hists    map[string]string `json:"hists"`
}

func openClasses(n int) []admission.ClassConfig { return make([]admission.ClassConfig, n) }

// serveScripts returns every scenario: the ported serving tests plus the
// seeded random mixes at K=0 and K=40 under gamma and edf.
func serveScripts() []serveScript {
	var out []serveScript

	// 2x overload: three classes in disjoint item bands, shedding on.
	ov := serveScript{
		Name: "overload", D: 300, Theta: 0.5, MaxLen: 1, Weights: []float64{4, 2, 1},
		Pull: "priority",
		Admission: admission.Config{
			Classes:         openClasses(3),
			Shed:            &faults.ShedConfig{High: 30, Low: 15, MaxShedClasses: 2},
			DefaultDeadline: 30,
		},
		Until: 1060,
	}
	for k := 0; 0.5*float64(k) < 1000; k++ {
		class := k % 3
		ov.Ops = append(ov.Ops, scriptOp{T: 0.5 * float64(k), Item: class*100 + (k/3)%100 + 1, Class: class})
	}
	out = append(out, ov)

	// Burst coalescing: a hundred requests for one item at once.
	burst := serveScript{
		Name: "burst", D: 5, Theta: 0.5, MaxLen: 1, Weights: []float64{2, 1},
		Admission: admission.Config{Classes: openClasses(2), DefaultDeadline: 10},
		Until:     10,
	}
	for i := 0; i < 100; i++ {
		burst.Ops = append(burst.Ops, scriptOp{Item: 3, Class: i % 2})
	}
	out = append(out, burst)

	// Deadline tie: completion lands exactly on the deadline.
	out = append(out, serveScript{
		Name: "deadline-tie", D: 3, Theta: 0.5, MaxLen: 1, Weights: []float64{2, 1},
		Admission: admission.Config{Classes: openClasses(2), DefaultDeadline: 10},
		Ops:       []scriptOp{{Item: 1, DeadlineIn: 1}},
		Until:     5,
	})

	// Deadline storm: every queued entry dies before its turn.
	storm := serveScript{
		Name: "deadline-storm", D: 10, Theta: 0.5, MaxLen: 1, Weights: []float64{2, 1},
		Admission: admission.Config{Classes: openClasses(2), DefaultDeadline: 10},
		Until:     20,
	}
	for i := 0; i < 50; i++ {
		storm.Ops = append(storm.Ops, scriptOp{Item: i%10 + 1, Class: i % 2, DeadlineIn: 0.5})
	}
	out = append(out, storm)

	// Push waiters beside a pull request.
	out = append(out, serveScript{
		Name: "push-waiters", D: 4, Theta: 0.5, MaxLen: 1, Weights: []float64{2, 1}, Cutoff: 2,
		Admission: admission.Config{Classes: openClasses(2), DefaultDeadline: 20},
		Ops:       []scriptOp{{T: 0.25, Item: 1, Class: 0}, {T: 0.25, Item: 4, Class: 1}},
		Until:     20,
	})

	// Mid-storm drain.
	dr := serveScript{
		Name: "drain", D: 12, Theta: 0.5, MaxLen: 1, Weights: []float64{4, 2, 1}, Cutoff: 2,
		Admission: admission.Config{Classes: openClasses(3), DefaultDeadline: 8},
	}
	for k := 0; k < 40; k++ {
		dr.Ops = append(dr.Ops, scriptOp{T: 0.2 * float64(k), Item: k%12 + 1, Class: k % 3})
	}
	dr.Ops = append(dr.Ops, scriptOp{T: 4, Drain: true})
	dr.Until = dr.Ops[39].T + 3*8
	out = append(out, dr)

	// Idle drain completes synchronously.
	out = append(out, serveScript{
		Name: "drain-idle", D: 3, Theta: 0.5, MaxLen: 1, Weights: []float64{2, 1},
		Admission: admission.Config{Classes: openClasses(2), DefaultDeadline: 5},
		Ops:       []scriptOp{{Drain: true}},
		Until:     5,
	})

	// Drains that complete inside a transmission's completion handler: the
	// last pending request is served by a pull delivery, or by a broadcast.
	// Nothing may be transmitted after either.
	for _, last := range []struct {
		name string
		item int
	}{{"drain-in-pull", 5}, {"drain-in-push", 2}} {
		out = append(out, serveScript{
			Name: last.name, D: 6, Theta: 0.5, MaxLen: 1, Weights: []float64{2, 1}, Cutoff: 2,
			Admission: admission.Config{Classes: openClasses(2), DefaultDeadline: 20},
			Ops:       []scriptOp{{Item: last.item}, {T: 0.5, Drain: true}},
			Until:     20,
		})
	}

	// Quota released on expiry.
	out = append(out, serveScript{
		Name: "quota-expiry", D: 6, Theta: 0.5, MaxLen: 1, Weights: []float64{2, 1},
		Admission: admission.Config{
			Classes:         []admission.ClassConfig{{MaxPending: 2}, {}},
			DefaultDeadline: 3,
		},
		Ops: []scriptOp{
			{T: 0.5, Item: 2}, {T: 0.5, Item: 3}, {T: 0.5, Item: 4}, {T: 10, Item: 5},
		},
		Until: 30,
	})

	for _, k := range []int{0, 40} {
		for _, pol := range []string{"gamma", "edf"} {
			out = append(out, randomScript(k, pol))
		}
	}
	return out
}

// randomScript is a seeded overload mix over a variable-length catalog:
// arrivals and deadlines on a quarter-unit grid (so completions, expiries
// and submissions tie), rate limits, quotas and shedding all engaged, and
// a drain near the end.
func randomScript(cutoff int, pull string) serveScript {
	sc := serveScript{
		Name: fmt.Sprintf("random-k%d-%s", cutoff, pull),
		D:    100, Theta: 0.6, MaxLen: 5, Weights: []float64{4, 2, 1},
		Cutoff: cutoff, Pull: pull, Alpha: 0.5,
		Admission: admission.Config{
			Classes: []admission.ClassConfig{
				{},
				{Rate: 1, Burst: 3, MaxPending: 8},
				{Rate: 0.6, Burst: 2, MaxPending: 4, Deadline: 15},
			},
			Shed:            &faults.ShedConfig{High: 25, Low: 12, MaxShedClasses: 1},
			DefaultDeadline: 25,
		},
	}
	r := rng.New(uint64(1000 + cutoff))
	t := 0.0
	const n = 1500
	for i := 0; i < n; i++ {
		t += 0.25 * math.Floor(-math.Log(1-r.Float64())*5)
		u := r.Float64()
		op := scriptOp{T: t, Item: 1 + int(float64(sc.D)*u*u), Class: r.Intn(3)}
		if r.Float64() < 0.3 {
			op.DeadlineIn = float64(1 + r.Intn(20))
		}
		sc.Ops = append(sc.Ops, op)
		if i == n*17/20 {
			sc.Ops = append(sc.Ops, scriptOp{T: t, Drain: true})
		}
	}
	sc.Until = t + 3*25
	return sc
}

// catalog builds the script's catalog.
func (sc serveScript) catalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{D: sc.D, Theta: sc.Theta, MinLen: 1, MaxLen: sc.MaxLen, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// classes builds the script's classification.
func (sc serveScript) classes(t *testing.T) *clients.Classification {
	t.Helper()
	cl, err := clients.New(clients.Config{Weights: sc.Weights})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// runScript plays a script against an engine on v and records the result.
// Submissions scripted after the drain began are recorded as "draining",
// the verdict the HTTP layer answers without reaching the engine.
func runScript(t *testing.T, sc serveScript, v *clock.Virtual, eng scriptEngine, tele *telemetry.Collector) goldenRun {
	t.Helper()
	run := goldenRun{Requests: make([]goldenReq, 0, len(sc.Ops))}
	for _, op := range sc.Ops {
		op := op
		if op.Drain {
			v.At(op.T, func() {
				eng.drain(func() { run.Drained = append(run.Drained, v.Now()) })
			})
			continue
		}
		idx := len(run.Requests)
		run.Requests = append(run.Requests, goldenReq{})
		v.At(op.T, func() {
			rec := &run.Requests[idx]
			if eng.draining() {
				rec.Verdict = "draining"
				return
			}
			calls := 0
			verdict := eng.submit(op.Item, op.Class, op.DeadlineIn, func(res Result) {
				calls++
				if calls > 1 {
					t.Errorf("%s: request %d resolved twice", sc.Name, idx)
				}
				rec.Outcome = res.Outcome.String()
				rec.T = v.Now()
				rec.Delay = res.Delay
				rec.Push = res.Push
			})
			rec.Verdict = verdict.String()
		})
	}
	v.RunUntil(sc.Until)
	run.Pending = eng.pending()
	snap := tele.TakeSnapshot(v.Now())
	run.Counters = map[string]int64{}
	for _, c := range snap.Counters {
		if c.V != 0 {
			run.Counters[fmt.Sprintf("%s{%d}", c.Name, c.Class)] = c.V
		}
	}
	run.Hists = map[string]string{}
	for _, h := range snap.Hists {
		run.Hists[fmt.Sprintf("%s{%d}", h.Name, h.Class)] = fmt.Sprintf("%v sum=%v", h.Counts, h.Sum)
	}
	return run
}

const serveGoldenPath = "testdata/serve_golden.json"

// readServeGolden loads the recorded golden runs, keyed by script name.
func readServeGolden(t *testing.T) map[string]goldenRun {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(serveGoldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var runs map[string]goldenRun
	if err := json.Unmarshal(data, &runs); err != nil {
		t.Fatal(err)
	}
	return runs
}

// serverScriptEngine drives a serving Server from a script.
type serverScriptEngine struct{ s *Server }

func (e serverScriptEngine) submit(item, class int, deadlineIn float64, done func(Result)) admission.Verdict {
	return e.s.Submit(item, clients.Class(class), deadlineIn, doneFunc(done))
}
func (e serverScriptEngine) drain(f func()) { e.s.Drain(f) }
func (e serverScriptEngine) draining() bool { return e.s.Draining() }
func (e serverScriptEngine) pending() int   { return e.s.Pending() }

// newScriptServer builds the serving Server a script describes, with a
// fresh collector attached.
func newScriptServer(t *testing.T, sc serveScript, v *clock.Virtual) (*Server, *telemetry.Collector) {
	t.Helper()
	tele, err := telemetry.New(telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServing(Config{
		Catalog: sc.catalog(t), Classes: sc.classes(t), Cutoff: sc.Cutoff,
		Alpha: sc.Alpha, PullPolicyName: sc.Pull, Telemetry: tele,
	}, v, sc.Admission)
	if err != nil {
		t.Fatal(err)
	}
	return s, tele
}

// TestServeGolden replays every serving script and requires the recorded
// per-request verdicts, outcomes, resolve times, delays and push flags, the
// drain completions and the final telemetry counters and delay histograms
// to match the golden exactly.
func TestServeGolden(t *testing.T) {
	golden := readServeGolden(t)
	scripts := serveScripts()
	if len(golden) != len(scripts) {
		t.Fatalf("golden holds %d scripts, want %d", len(golden), len(scripts))
	}
	for _, sc := range scripts {
		t.Run(sc.Name, func(t *testing.T) {
			want, ok := golden[sc.Name]
			if !ok {
				t.Fatalf("no golden for %s", sc.Name)
			}
			v := clock.NewVirtual()
			s, tele := newScriptServer(t, sc, v)
			s.Start()
			got := runScript(t, sc, v, serverScriptEngine{s}, tele)
			if len(got.Requests) != len(want.Requests) {
				t.Fatalf("%d requests, golden %d", len(got.Requests), len(want.Requests))
			}
			for i := range want.Requests {
				if got.Requests[i] != want.Requests[i] {
					t.Fatalf("request %d: got %+v, golden %+v", i, got.Requests[i], want.Requests[i])
				}
			}
			if !reflect.DeepEqual(got.Drained, want.Drained) || got.Pending != want.Pending {
				t.Errorf("drained %v pending %d, golden %v %d", got.Drained, got.Pending, want.Drained, want.Pending)
			}
			if !reflect.DeepEqual(got.Counters, want.Counters) {
				t.Errorf("counters\n got    %v\n golden %v", got.Counters, want.Counters)
			}
			if !reflect.DeepEqual(got.Hists, want.Hists) {
				t.Errorf("histograms\n got    %v\n golden %v", got.Hists, want.Hists)
			}
		})
	}
}
