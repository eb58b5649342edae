package errclass

import (
	"errors"
	"fmt"
	"testing"
)

func TestSentinelsDistinct(t *testing.T) {
	all := []error{Shed, Timeout, OOM, Crashed}
	for i, a := range all {
		for j, b := range all {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("Is(%v, %v) = %v", a, b, i != j)
			}
		}
	}
}

func TestWrappedClassification(t *testing.T) {
	wrapped := fmt.Errorf("submit: %w", Shed)
	if !IsShed(wrapped) {
		t.Error("wrapped shed not recognized")
	}
	if errors.Is(wrapped, Timeout) || errors.Is(wrapped, OOM) || errors.Is(wrapped, Crashed) {
		t.Error("wrapped shed matched a foreign class")
	}
	if Of(wrapped) != Shed {
		t.Errorf("Of(wrapped) = %v, want Shed", Of(wrapped))
	}
}

func TestOfUnclassified(t *testing.T) {
	if Of(nil) != nil {
		t.Error("Of(nil) != nil")
	}
	if Of(errors.New("plain")) != nil {
		t.Error("Of(plain) != nil")
	}
}
