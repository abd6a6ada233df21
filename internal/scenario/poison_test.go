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
// oracle. Every cycle-engine built-in, every built-in sweep, every paper
// file shrunk as TestPaperSweeps shrinks it, and one optimizer stack on
// Cyclon over lossy links that delay legs up to two cycles are run twice:
// plainly, and under the free-list debug mode, which panics on a double
// release or a write after release and poisons every released payload
// (0x5a in every byte of every number, through its slices). Correct code
// never reads a payload after the cycle that recycles it, so the two runs
// must emit the same bytes. The delayed links matter: a reply that
// travels in its request (ApplyContext.Forward), or a buffer a reply
// shares with its request, outlives the cycle of that request only when
// the net model holds the reply back.
func TestPoisonInvariance(t *testing.T) {
	type job struct {
		name string
		run  func(sink exp.Sink) error
	}
	var jobs []job
	campaign := func(name string, spec Spec) {
		jobs = append(jobs, job{name, func(sink exp.Sink) error {
			_, err := Run(spec, Options{Workers: 2}, sink)
			return err
		}})
	}
	sweep := func(name string, sw SweepSpec) {
		jobs = append(jobs, job{name, func(sink exp.Sink) error {
			_, err := RunSweep(sw, Options{Reps: 1}, sink)
			return err
		}})
	}
	for _, name := range BuiltinNames() {
		if spec, _ := Builtin(name); spec.Engine != EngineEvent {
			campaign(name, spec)
		}
	}
	for _, name := range BuiltinSweepNames() {
		sw, _ := BuiltinSweep(name)
		sweep("sweep "+name, sw)
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
		sweep("paper "+sw.Name, shrinkSweep(t, sw))
	}
	campaign("cyclon-delayed-links", Spec{
		Name: "cyclon-delayed-links", Nodes: 48, Seed: 46,
		Stack:        Stack{Topology: "cyclon", ViewSize: 8, Particles: 4, Net: &NetSpec{Loss: 0.1, DelayMax: 2}},
		MetricsEvery: 5,
		Stop:         Stop{Cycles: 60},
	})

	render := func(j job, debug bool) (out string, err error) {
		sim.EnableFreeListDebug(debug)
		defer sim.EnableFreeListDebug(false)
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		var buf bytes.Buffer
		err = j.run(exp.NewCSVSink(&buf))
		return buf.String(), err
	}
	for _, j := range jobs {
		plain, err := render(j, false)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		poisoned, err := render(j, true)
		if err != nil {
			t.Errorf("%s under the free-list debug mode: %v", j.name, err)
			continue
		}
		if poisoned != plain {
			t.Errorf("%s: output differs with released payloads poisoned: a payload is read after the cycle that recycled it", j.name)
		}
	}
}
