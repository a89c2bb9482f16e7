// Package apiv1 exercises wirecompat against a committed lock that
// records a removed field, a retyped field, a retagged field, a removed
// type and a removed/changed constant. Additive changes (Added) are fine.
package apiv1 // want `wire constant CodeGone is recorded` `wire type GoneType is recorded`

type Stats struct { // want `wire field Stats\.Removed is recorded` `wire field Stats\.Tagged changed json tag from "tagged" to "tagged2"` `wire field Stats\.Typed changed type from int to string`
	Kept   int    `json:"kept"`
	Typed  string `json:"typed"`
	Tagged int    `json:"tagged2"`
	Added  int    `json:"added"`
}

const (
	CodeOK      = "ok"
	CodeChanged = "changed_v2" // want `wire constant CodeChanged changed value from changed to changed_v2`
)
