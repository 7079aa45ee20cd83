package user

import (
	"testing"

	"repro/internal/lint/testdata/src/unusedexport"
)

func TestOther(t *testing.T) {
	if unusedexport.OtherTestsUse() != 4 {
		t.Fatal("another package's tests are a use")
	}
}
