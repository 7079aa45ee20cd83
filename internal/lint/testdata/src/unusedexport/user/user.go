// Package user reaches the fixture's exports from non-test code.
package user

import "repro/internal/lint/testdata/src/unusedexport"

func use() int { return unusedexport.Used() }
