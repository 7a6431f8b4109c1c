package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassOK},
		{"plain", base, ClassFatal},
		{"wrapped plain", fmt.Errorf("job: %w", base), ClassFatal},
		{"canceled", context.Canceled, ClassCanceled},
		{"wrapped canceled", fmt.Errorf("job: %w", context.Canceled), ClassCanceled},
		{"deadline", context.DeadlineExceeded, ClassDeadline},
		{"wrapped deadline", fmt.Errorf("timed out: %w", context.DeadlineExceeded), ClassDeadline},
		{"transient", MarkTransient(base), ClassTransient},
		{"wrapped transient", fmt.Errorf("epoch 3: %w", MarkTransient(base)), ClassTransient},
		{"panic", &PanicError{Value: "exploded"}, ClassTransient},
		{"wrapped panic", fmt.Errorf("job: %w", &PanicError{Value: 7}), ClassTransient},
		// A canceled context outranks a transient marker: the user asked
		// the run to stop.
		{"canceled beats transient", MarkTransient(context.Canceled), ClassCanceled},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMarkNilStaysNil(t *testing.T) {
	if MarkTransient(nil) != nil {
		t.Fatal("marking nil must stay nil")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassOK: "ok", ClassTransient: "transient", ClassDeadline: "deadline",
		ClassCanceled: "canceled", ClassFatal: "fatal",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestPanicErrorCarriesStack(t *testing.T) {
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		panic("kaput")
	}()
	pe, ok := AsPanic(fmt.Errorf("job x: %w", err))
	if !ok {
		t.Fatal("AsPanic failed to find the panic in the chain")
	}
	if pe.Error() != "panic: kaput" {
		t.Errorf("Error() = %q", pe.Error())
	}
	if !strings.Contains(string(pe.Stack), "TestPanicErrorCarriesStack") {
		t.Errorf("stack does not name the panicking frame:\n%s", pe.Stack)
	}
	if Classify(err) != ClassTransient {
		t.Errorf("recovered panic classified %v, want transient", Classify(err))
	}
}
