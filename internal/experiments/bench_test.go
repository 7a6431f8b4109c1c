package experiments

import (
	"context"
	"encoding/json"
	"testing"
)

func TestBenchQuick(t *testing.T) {
	res, err := Bench(context.Background(), Options{Quick: true, Seed: 1}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 4 {
		t.Errorf("Workers = %d, want 4", res.Workers)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %d, want mixing/expansion/spectral", len(res.Entries))
	}
	names := map[string]bool{}
	for _, e := range res.Entries {
		names[e.Name] = true
		if e.SequentialSeconds <= 0 || e.ParallelSeconds <= 0 {
			t.Errorf("%s: non-positive timings %v/%v", e.Name, e.SequentialSeconds, e.ParallelSeconds)
		}
		if e.Speedup <= 0 {
			t.Errorf("%s: speedup %v", e.Name, e.Speedup)
		}
		if !e.Identical {
			t.Errorf("%s: workers=1 and workers=4 results differ — determinism contract broken", e.Name)
		}
	}
	for _, want := range []string{"mixing", "expansion", "spectral"} {
		if !names[want] {
			t.Errorf("missing kernel %s", want)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result not JSON-serializable: %v", err)
	}
}

func TestBenchDefaultsWorkersAndRepeats(t *testing.T) {
	res, err := Bench(context.Background(), Options{Quick: true, Seed: 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers < 1 {
		t.Errorf("Workers = %d, want >= 1", res.Workers)
	}
	for _, e := range res.Entries {
		if e.Repeats != 1 {
			t.Errorf("%s: repeats = %d, want floored to 1", e.Name, e.Repeats)
		}
	}
}

func TestBenchHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Bench(ctx, Options{Quick: true, Seed: 1}, 2, 1); err == nil {
		t.Fatal("want error from cancelled context")
	}
}
