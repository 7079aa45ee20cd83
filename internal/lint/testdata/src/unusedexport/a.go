// Package unusedexport is a cloudyvet golden-file fixture. Its user
// subpackage and the tests beside both decide which exports count as
// used: a reference from another package's code or tests is a use, one
// from this package's own tests is not.
package unusedexport

import "fmt"

// Used is called by the user package.
func Used() int { return 1 }

// Unused is called by nothing.
func Unused() int { return 2 } // want "exported func Unused is used by no non-test file and no other package's tests"

// OwnTestsOnly is called only by this package's tests.
func OwnTestsOnly() int { return 3 } // want "exported func OwnTestsOnly"

// OtherTestsUse is called only by the user package's tests.
func OtherTestsUse() int { return 4 }

// Shape is a module interface; Square.Area implements it.
type Shape interface{ Area() float64 }

// Square is a shape.
type Square struct {
	Side  float64 // read by Area
	Color string  // want "exported field Color"
	Label string  `json:"label"`
}

// Area implements Shape, so it needs no caller.
func (s Square) Area() float64 { return s.Side * s.Side }

// String implements fmt.Stringer, so it needs no caller.
func (s Square) String() string { return fmt.Sprint(s.Side) }

// Perimeter is called only by this package's tests.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want "exported method Perimeter"
