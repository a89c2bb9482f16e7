package main

import "testing"

// golden is the full -list roster: adding, removing or renaming a pass must
// show up here.
const golden = `guardedby        annotated struct fields may only be accessed with their declared mutex held on every path
`

func TestListGolden(t *testing.T) {
	if got := listString(); got != golden {
		t.Errorf("-list output drifted from the golden roster:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}
