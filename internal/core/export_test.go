package core

import "repro/internal/datatype"

// Footprint is the row a rank with view v contributes to Partition's table,
// for the tests in package core_test.
func Footprint(v datatype.View) []int64 {
	row, _ := footprint(v)
	return row[:]
}
