package apiv1

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate apiv1.lock.json from the current sources")

// lockFile is the committed wire schema: every exported struct field of this
// package (Go type and json tag) and every exported constant. The wire is
// additive-only: a locked field or constant may never be removed, renamed,
// retyped or re-tagged, and a locked constant may never change value. Those
// are the breaks an integration test misses when client and server
// regenerate from the same source, and they orphan recorded results.
const lockFile = "apiv1.lock.json"

// fieldSchema is one locked struct field.
type fieldSchema struct {
	Type string `json:"type"`
	JSON string `json:"json,omitempty"`
}

// schema is the locked wire surface of the package.
type schema struct {
	Types  map[string]map[string]fieldSchema `json:"types"`
	Consts map[string]string                 `json:"consts"`
}

// TestWireLock type-checks this package from source and compares its wire
// surface with apiv1.lock.json. After an intended additive change, run
//
//	go test ./pkg/apiv1 -run TestWireLock -update
//
// and review the lock's diff: it is the wire change.
func TestWireLock(t *testing.T) {
	current := loadSchema(t)
	if *update {
		if err := os.WriteFile(lockFile, marshalSchema(t, current), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(lockFile)
	if err != nil {
		t.Fatalf("%v: run go test ./pkg/apiv1 -run TestWireLock -update to create it", err)
	}
	var locked schema
	if err := json.Unmarshal(data, &locked); err != nil {
		t.Fatalf("parse %s: %v", lockFile, err)
	}
	for _, v := range wireBreaks(locked, current) {
		t.Error(v)
	}
}

// TestWireBreaksCatchesEachRule runs the comparison over schemas broken the
// way a wire change breaks clients.
func TestWireBreaksCatchesEachRule(t *testing.T) {
	locked := schema{
		Types: map[string]map[string]fieldSchema{"Campaign": {
			"ID":  {Type: "int", JSON: "id"},
			"USD": {Type: "float64", JSON: "usd"},
		}},
		Consts: map[string]string{"EventDrained": "drained", "Limit": "100"},
	}
	for _, c := range []struct {
		name   string
		mutate func(s *schema)
		want   string
	}{
		{"retyped field", func(s *schema) { s.Types["Campaign"]["USD"] = fieldSchema{Type: "float32", JSON: "usd"} },
			"Campaign.USD changed type from float64 to float32"},
		{"re-tagged field", func(s *schema) { s.Types["Campaign"]["USD"] = fieldSchema{Type: "float64", JSON: "usd_total"} },
			`Campaign.USD changed json tag from "usd" to "usd_total"`},
		{"removed field", func(s *schema) { delete(s.Types["Campaign"], "ID") }, "Campaign.ID is locked"},
		{"removed type", func(s *schema) { delete(s.Types, "Campaign") }, "type Campaign is locked"},
		{"removed constant", func(s *schema) { delete(s.Consts, "EventDrained") }, "constant EventDrained is locked"},
		{"changed constant", func(s *schema) { s.Consts["Limit"] = "50" }, "constant Limit changed value from 100 to 50"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var current schema
			b, _ := json.Marshal(locked)
			json.Unmarshal(b, &current)
			c.mutate(&current)
			got := wireBreaks(locked, current)
			if len(got) != 1 || !strings.Contains(got[0], c.want) {
				t.Fatalf("breaks %q, want one containing %q", got, c.want)
			}
		})
	}
	added := schema{Types: map[string]map[string]fieldSchema{"Campaign": {
		"ID": {Type: "int", JSON: "id"}, "USD": {Type: "float64", JSON: "usd"}, "New": {Type: "string", JSON: "new"},
	}, "Extra": {}}, Consts: map[string]string{"EventDrained": "drained", "Limit": "100", "Added": "x"}}
	if got := wireBreaks(locked, added); len(got) != 0 {
		t.Errorf("additions must pass, got %q", got)
	}
}

// loadSchema type-checks the package's non-test sources and extracts its
// wire surface: exported struct types with their exported fields (type
// relative to this package, json tag), and exported constants.
func loadSchema(t *testing.T) schema {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("cryptomining/pkg/apiv1", fset, files, nil)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}

	s := schema{Types: map[string]map[string]fieldSchema{}, Consts: map[string]string{}}
	qual := types.RelativeTo(pkg)
	for _, name := range pkg.Scope().Names() {
		switch obj := pkg.Scope().Lookup(name).(type) {
		case *types.TypeName:
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok || !obj.Exported() {
				continue
			}
			fields := map[string]fieldSchema{}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f.Name()] = fieldSchema{
						Type: types.TypeString(f.Type(), qual),
						JSON: reflect.StructTag(st.Tag(i)).Get("json"),
					}
				}
			}
			s.Types[name] = fields
		case *types.Const:
			if !obj.Exported() {
				continue
			}
			v := obj.Val().ExactString()
			if obj.Val().Kind() == constant.String {
				v = constant.StringVal(obj.Val())
			}
			s.Consts[name] = v
		}
	}
	return s
}

// marshalSchema renders a schema the way the lock is committed: indented,
// keys sorted, with a trailing newline.
func marshalSchema(t *testing.T, s schema) []byte {
	t.Helper()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// wireBreaks lists, in a stable order, every locked field or constant that
// current removes or changes. Additions are never breaks.
func wireBreaks(locked, current schema) []string {
	var out []string
	for _, typeName := range sortedKeys(locked.Types) {
		cur, ok := current.Types[typeName]
		if !ok {
			out = append(out, fmt.Sprintf("wire type %s is locked in %s but no longer exists: locked types may never be removed or renamed", typeName, lockFile))
			continue
		}
		fields := locked.Types[typeName]
		for _, fieldName := range sortedKeys(fields) {
			was := fields[fieldName]
			now, ok := cur[fieldName]
			if !ok {
				out = append(out, fmt.Sprintf("wire field %s.%s is locked in %s but no longer exists: fields may be added, never removed or renamed", typeName, fieldName, lockFile))
				continue
			}
			if now.Type != was.Type {
				out = append(out, fmt.Sprintf("wire field %s.%s changed type from %s to %s: locked wire fields may never change type", typeName, fieldName, was.Type, now.Type))
			}
			if now.JSON != was.JSON {
				out = append(out, fmt.Sprintf("wire field %s.%s changed json tag from %q to %q: the wire name is part of the contract", typeName, fieldName, was.JSON, now.JSON))
			}
		}
	}
	for _, name := range sortedKeys(locked.Consts) {
		was := locked.Consts[name]
		now, ok := current.Consts[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("wire constant %s is locked in %s but no longer exists", name, lockFile))
		case now != was:
			out = append(out, fmt.Sprintf("wire constant %s changed value from %s to %s: recorded clients match on the old value", name, was, now))
		}
	}
	return out
}

// sortedKeys returns a map's keys in order, so findings are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
