package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
)

// tinySF keeps every workload's catalogue small enough for a unit test.
const tinySF = 0.002

func tinyConfig(t *testing.T, s *spec, trace bool) *config {
	return &config{spec: s, seed: 7, sf: tinySF, seconds: 0.4, trace: trace, setupReps: 1, workDir: t.TempDir()}
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json names workload %q perfbench does not know", w.Name)
		}
	}
	return endToEnd, perLayer
}

// TestEveryMetricPrints runs each workload at a tiny size, untraced and
// traced, and checks that the result line carries exactly the declared
// metrics with their declared units and that every answer was right.
func TestEveryMetricPrints(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", s.name, trace), func(t *testing.T) {
				out, err := run(tinyConfig(t, s, trace), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(out.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := out.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %q, declared %q", name, m.Unit, unit)
					}
				}
				if !trace {
					for name, m := range out.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestCorruptReferenceFails damages the reference answers and checks
// that the wrong answers are counted as failures.
func TestCorruptReferenceFails(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			cfg := tinyConfig(t, s, false)
			cfg.corrupt = true
			out, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if out.Correct || out.Failed == 0 {
				t.Fatalf("corrupted reference: correct=%v failed=%d of %d", out.Correct, out.Failed, out.Attempted)
			}
		})
	}
}

// TestSeedDeterminism checks that one seed yields one statement
// sequence per client, and another seed another.
func TestSeedDeterminism(t *testing.T) {
	seq := func(s *spec, seed int64, client int) []string {
		w, err := newWorld(s, seed, tinySF)
		if err != nil {
			t.Fatal(err)
		}
		st := w.newStream(client)
		var out []string
		for i := 0; i < 500; i++ {
			o := st.next()
			// Acknowledge writes as the server would, so the sequence
			// advances exactly as in a run.
			if o.write != nil {
				st.apply(o.write)
			}
			out = append(out, fmt.Sprintf("%s %q %v", o.cls, o.sql, o.params))
		}
		return out
	}
	for _, s := range specs {
		for c := 0; c < s.clients; c++ {
			a, b := seq(s, 11, c), seq(s, 11, c)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: seed 11 gave two sequences", s.name, c)
			}
			if reflect.DeepEqual(a, seq(s, 12, c)) {
				t.Errorf("%s client %d: seeds 11 and 12 gave the same sequence", s.name, c)
			}
		}
	}
}

// TestAnswersRoundTrip checks that encoded reference answers decode to
// the rows stored, keep each cell's type, and that a later add replaces
// an earlier one.
func TestAnswersRoundTrip(t *testing.T) {
	var a answers
	want := [][]any{{int64(-3), 2.5, "x"}, {}, {"", int64(1 << 40), -0.125}}
	a.add(7, want)
	a.add(8, [][]any{})
	if got := a.rows(7); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows(7) = %#v, want %#v", got, want)
	}
	if got := a.rows(8); got == nil || len(got) != 0 {
		t.Fatalf("rows(8) = %#v, want no rows", got)
	}
	if a.rows(9) != nil || a.row(9) != nil {
		t.Fatal("a key without an answer must decode to nil")
	}
	a.add(7, [][]any{{"replaced"}})
	if got := a.row(7); !reflect.DeepEqual(got, []any{"replaced"}) {
		t.Fatalf("row(7) after replace = %#v", got)
	}
}
