// Package apiv1 has no committed lock: the pass fails closed and demands
// one.
package apiv1 // want `has no schema lock`

type T struct {
	A int `json:"a"`
}
