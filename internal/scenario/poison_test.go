package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gossipopt/internal/exp"
	"gossipopt/internal/sim"
)

// TestPoisonInvariance is the payload free lists' use-after-release
// oracle. Every cycle-engine built-in, every cell of every built-in sweep
// and of every paper file shrunk as TestPaperSweeps shrinks it, and one
// optimizer stack on Newscast over lossy links that delay legs up to two
// cycles are run twice: plainly on two workers, and on one worker under
// the free-list debug mode, which panics on a double release or a write
// after release and poisons every released payload (0x5a in every byte of
// every number, through its slices). Correct code never reads a payload
// after the cycle that recycles it, and the output does not depend on the
// worker count, so the two runs must emit the same bytes. On one worker
// every handler and every release runs on the test goroutine, so a debug
// panic fails the job it names instead of the test binary. The delayed
// links matter: a reply that travels in its request (ApplyContext.Forward)
// outlives the cycle of that request only when the net model holds the
// reply back.
func TestPoisonInvariance(t *testing.T) {
	type job struct {
		name string
		spec Spec
	}
	var jobs []job
	// A sweep's repetitions run on runRepPool's goroutines, so each cell
	// is run as a campaign of its own, on the test goroutine.
	sweep := func(kind string, sw SweepSpec) {
		cells, err := sw.Cells()
		if err != nil {
			t.Fatalf("%s %s: %v", kind, sw.Name, err)
		}
		for _, c := range cells {
			jobs = append(jobs, job{kind + " " + c.Name, c.Spec})
		}
	}
	for _, name := range BuiltinNames() {
		if spec, _ := Builtin(name); spec.Engine != EngineEvent {
			jobs = append(jobs, job{name, spec})
		}
	}
	for _, name := range BuiltinSweepNames() {
		sw, _ := BuiltinSweep(name)
		sweep("sweep", sw)
	}
	paths, err := filepath.Glob(filepath.Join(paperDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no paper files (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := ParseSweep(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		sweep("paper", shrinkSweep(t, sw))
	}
	jobs = append(jobs, job{"newscast-delayed-links", Spec{
		Name: "newscast-delayed-links", Nodes: 48, Seed: 46,
		Stack:        Stack{ViewSize: 8, Particles: 4, Net: &NetSpec{Loss: 0.1, DelayMax: 2}},
		MetricsEvery: 5,
		Stop:         Stop{Cycles: 60},
	}})

	render := func(j job, workers int, debug bool) (out string, err error) {
		sim.EnableFreeListDebug(debug)
		defer sim.EnableFreeListDebug(false)
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		var buf bytes.Buffer
		_, err = Run(j.spec, Options{Workers: workers}, exp.NewCSVSink(&buf))
		return buf.String(), err
	}
	for _, j := range jobs {
		plain, err := render(j, 2, false)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		poisoned, err := render(j, 1, true)
		if err != nil {
			t.Errorf("%s under the free-list debug mode: %v", j.name, err)
			continue
		}
		if poisoned != plain {
			t.Errorf("%s: output differs with released payloads poisoned: a payload is read after the cycle that recycled it", j.name)
		}
	}
}
