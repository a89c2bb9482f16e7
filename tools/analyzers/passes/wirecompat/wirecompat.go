// Package wirecompat enforces the additive-only wire policy on pkg/apiv1: a
// committed schema snapshot (apiv1.lock.json, generated with the pass's
// -write flag) records every exported struct field — name, Go type, json tag
// — and every exported constant of the wire package. A field or constant
// present in the lock may never be removed, renamed, change type or change
// json tag; adding new ones is always fine. Renames and type changes are the
// wire breaks integration tests miss when both sides regenerate from the
// same source, which is exactly how a measurement API silently orphans its
// recorded corpora.
//
// Regenerate after an intentional additive change:
//
//	go -C tools/analyzers run ./cmd/cryptolint -dir ../.. -wirecompat.write ./pkg/apiv1/
//
// The diff of the lock file is then the reviewable wire change.
package wirecompat

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"cryptomining/tools/analyzers/analysis"
	"cryptomining/tools/analyzers/internal/lintutil"
)

const (
	name = "wirecompat"
	// wirePkg is the package under the additive-only policy; its lock is
	// lockFile next to its sources.
	wirePkg  = "pkg/apiv1"
	lockFile = "apiv1.lock.json"
)

var writeLock bool

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "wire-package fields recorded in the schema lock may never be removed, renamed or retyped",
	Run:  run,
}

func init() {
	Analyzer.Flags.BoolVar(&writeLock, "write", false,
		"regenerate the schema lock from the current sources instead of checking")
}

// FieldSchema is one recorded struct field.
type FieldSchema struct {
	Type string `json:"type"`
	JSON string `json:"json,omitempty"`
}

// Schema is the locked wire surface of one package.
type Schema struct {
	Types  map[string]map[string]FieldSchema `json:"types"`
	Consts map[string]string                 `json:"consts"`
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PkgMatches(pass.Pkg.Path(), wirePkg) || len(pass.Files) == 0 {
		return nil, nil
	}
	path := filepath.Join(filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename), lockFile)
	current := Snapshot(pass.Pkg)
	if writeLock {
		data, err := MarshalSchema(current)
		if err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, data, 0o644)
	}

	dirs := map[*ast.File]*lintutil.Directives{}
	for _, f := range pass.Files {
		dirs[f] = lintutil.DirectivesFor(pass.Fset, f)
		dirs[f].ReportMalformed(pass)
	}
	allowed := func(pos token.Pos) bool {
		for f, d := range dirs {
			if f.Pos() <= pos && pos <= f.End() {
				return d.Allowed(name, pos)
			}
		}
		return false
	}
	report := func(pos token.Pos, format string, args ...any) {
		if !allowed(pos) {
			pass.Reportf(pos, format, args...)
		}
	}

	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		report(pass.Files[0].Name.Pos(),
			"wire package %s has no schema lock at %s: run cryptolint with -wirecompat.write to create it",
			pass.Pkg.Path(), path)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var locked Schema
	if err := json.Unmarshal(data, &locked); err != nil {
		return nil, fmt.Errorf("wirecompat: parse %s: %v", path, err)
	}

	typePos, constPos := declPositions(pass)
	pkgPos := pass.Files[0].Name.Pos()
	posOf := func(m map[string]token.Pos, key string) token.Pos {
		if p, ok := m[key]; ok {
			return p
		}
		return pkgPos
	}

	for _, typeName := range sortedKeys(locked.Types) {
		fields := locked.Types[typeName]
		cur, ok := current.Types[typeName]
		if !ok {
			report(posOf(typePos, typeName),
				"wire type %s is recorded in %s but no longer exists: removing or renaming locked wire types breaks recorded clients", typeName, filepath.Base(path))
			continue
		}
		for _, fieldName := range sortedKeys(fields) {
			lockedField := fields[fieldName]
			curField, ok := cur[fieldName]
			if !ok {
				report(posOf(typePos, typeName),
					"wire field %s.%s is recorded in %s but no longer exists: fields may be added, never removed or renamed", typeName, fieldName, filepath.Base(path))
				continue
			}
			if curField.Type != lockedField.Type {
				report(posOf(typePos, typeName),
					"wire field %s.%s changed type from %s to %s: locked wire fields may never change type", typeName, fieldName, lockedField.Type, curField.Type)
			}
			if curField.JSON != lockedField.JSON {
				report(posOf(typePos, typeName),
					"wire field %s.%s changed json tag from %q to %q: the wire name is part of the contract", typeName, fieldName, lockedField.JSON, curField.JSON)
			}
		}
	}
	for _, constName := range sortedKeys(locked.Consts) {
		lockedVal := locked.Consts[constName]
		curVal, ok := current.Consts[constName]
		if !ok {
			report(posOf(constPos, constName),
				"wire constant %s is recorded in %s but no longer exists", constName, filepath.Base(path))
			continue
		}
		if curVal != lockedVal {
			report(posOf(constPos, constName),
				"wire constant %s changed value from %s to %s: recorded clients match on the old value", constName, lockedVal, curVal)
		}
	}
	return nil, nil
}

// Snapshot extracts the wire surface of a package: exported struct types with
// their exported fields, and exported constants.
func Snapshot(pkg *types.Package) Schema {
	s := Schema{Types: map[string]map[string]FieldSchema{}, Consts: map[string]string{}}
	qual := types.RelativeTo(pkg)
	scope := pkg.Scope()
	for _, objName := range scope.Names() {
		obj := scope.Lookup(objName)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.TypeName:
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			fields := map[string]FieldSchema{}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				tag := reflect.StructTag(st.Tag(i)).Get("json")
				fields[f.Name()] = FieldSchema{
					Type: types.TypeString(f.Type(), qual),
					JSON: tag,
				}
			}
			s.Types[obj.Name()] = fields
		case *types.Const:
			s.Consts[obj.Name()] = constValue(obj.Val())
		}
	}
	return s
}

func constValue(v constant.Value) string {
	if v.Kind() == constant.String {
		return constant.StringVal(v)
	}
	return v.ExactString()
}

// MarshalSchema renders a schema deterministically (encoding/json sorts map
// keys) with a trailing newline, so the committed lock diffs cleanly.
func MarshalSchema(s Schema) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// declPositions indexes exported type and const declaration positions for
// diagnostics.
func declPositions(pass *analysis.Pass) (typePos, constPos map[string]token.Pos) {
	typePos = map[string]token.Pos{}
	constPos = map[string]token.Pos{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					typePos[spec.Name.Name] = spec.Name.Pos()
				case *ast.ValueSpec:
					if gd.Tok == token.CONST {
						for _, n := range spec.Names {
							constPos[n.Name] = n.Pos()
						}
					}
				}
			}
		}
	}
	return typePos, constPos
}

// sortedKeys returns a map's keys in order — go maps iterate randomly, and
// diagnostics must be deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
