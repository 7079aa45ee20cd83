package unusedexport

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestsOnly()+int(Square{}.Perimeter()) != 3 {
		t.Fatal("own tests are not uses")
	}
}
