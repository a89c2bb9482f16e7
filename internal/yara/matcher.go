package yara

import "bytes"

// matcher is a rule set compiled for scanning: one Aho–Corasick automaton
// over every string definition of every rule, flattened to a dense DFA, plus
// what it takes to evaluate each rule's condition over the definitions one
// scan found. It is built once, by Parse, and never written afterwards, so
// any number of goroutines may scan with it at once.
//
// The automaton runs on case-folded input: class sends an ASCII upper-case
// letter to its lower-case letter's column, and every pattern is inserted
// folded. That is the whole of `nocase` (ASCII-only, as in YARA). A
// case-sensitive pattern that contains a letter is confirmed against the raw
// bytes when its folded form is found (exact); one without letters cannot be
// reached by folding and needs no confirmation.
type matcher struct {
	// class maps a content byte to its column of trans. Bytes no pattern
	// uses share column 0, so a row is as wide as the patterns' alphabet and
	// the table stays cache-resident.
	class [256]uint8
	// trans holds one row of stride columns per state. State ids are row
	// offsets (premultiplied), so a step is trans[state+class[b]]. The start
	// state is 0.
	trans  []uint32
	stride uint32
	// States where some pattern ends are numbered last: state >= outMin.
	// The k-th of them ends the definitions outDefs[outStart[k]:outStart[k+1]].
	outMin   uint32
	outStart []uint32
	outDefs  []uint32

	// Per definition, indexed in source order across all rules: its name,
	// and the raw bytes to confirm a folded hit against (nil when no
	// confirmation is needed).
	names []string
	exact [][]byte

	rules []ruleProg
}

// ruleProg is one rule's condition over the definitions [lo, hi).
type ruleProg struct {
	name   string
	lo, hi int
	cond   Condition
}

// stackWords sizes the hit set Match keeps on its stack: 256 definitions.
// Larger rule sets allocate theirs per call.
const stackWords = 4

func foldASCII(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

func isASCIILetter(b byte) bool {
	return 'a' <= b|0x20 && b|0x20 <= 'z'
}

// compile builds the matcher for rules. Every definition must be non-empty
// (Parse rejects empty ones).
func compile(rules []Rule) *matcher {
	m := &matcher{}
	var patterns [][]byte // folded, by definition
	for i := range rules {
		r := &rules[i]
		m.rules = append(m.rules, ruleProg{
			name: r.Name, cond: r.Condition,
			lo: len(patterns), hi: len(patterns) + len(r.Strings),
		})
		for _, def := range r.Strings {
			raw := def.Text
			if def.IsHex {
				raw = def.Pattern
			}
			folded := make([]byte, len(raw))
			var exact []byte
			for j, b := range raw {
				folded[j] = foldASCII(b)
				if !def.NoCase && isASCIILetter(b) {
					exact = raw
				}
			}
			patterns = append(patterns, folded)
			m.names = append(m.names, def.Name)
			m.exact = append(m.exact, exact)
		}
	}

	// Alphabet: one column per distinct folded pattern byte, column 0 for
	// the rest.
	var used [256]bool
	for _, p := range patterns {
		for _, b := range p {
			used[b] = true
		}
	}
	var column [256]uint8
	stride := 1
	for b, u := range used {
		if u {
			column[b] = uint8(stride)
			stride++
		}
	}
	for b := range m.class {
		m.class[b] = column[foldASCII(byte(b))]
	}

	// Trie of the folded patterns; -1 marks a missing edge.
	addState := func(next []int32) []int32 {
		for c := 0; c < stride; c++ {
			next = append(next, -1)
		}
		return next
	}
	next := addState(nil)
	ends := [][]uint32{nil} // definitions ending at each state
	for d, p := range patterns {
		s := int32(0)
		for _, b := range p {
			e := int(s)*stride + int(column[b])
			if next[e] < 0 {
				next[e] = int32(len(ends))
				next = addState(next)
				ends = append(ends, nil)
			}
			s = next[e]
		}
		ends[s] = append(ends[s], uint32(d))
	}

	// Breadth-first: give each state its failure state's missing edges and
	// its ends, which turns the trie into a DFA with no failure transitions
	// left to follow at scan time. A failure state is shallower than its
	// state, so it is complete by the time it is copied from.
	fail := make([]int32, len(ends))
	queue := make([]int32, 0, len(ends))
	for c := 0; c < stride; c++ {
		if t := next[c]; t < 0 {
			next[c] = 0
		} else {
			queue = append(queue, t)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		f := fail[s]
		ends[s] = append(ends[s], ends[f]...)
		for c := 0; c < stride; c++ {
			e := int(s)*stride + c
			if t := next[e]; t < 0 {
				next[e] = next[int(f)*stride+c]
			} else {
				fail[t] = next[int(f)*stride+c]
				queue = append(queue, t)
			}
		}
	}

	// Renumber so that states with ends come last, and premultiply.
	id := make([]uint32, len(ends))
	n := uint32(0)
	for s := range ends {
		if len(ends[s]) == 0 {
			id[s] = n * uint32(stride)
			n++
		}
	}
	m.stride = uint32(stride)
	m.outMin = n * m.stride
	for s := range ends {
		if len(ends[s]) > 0 {
			id[s] = n * m.stride
			n++
			m.outStart = append(m.outStart, uint32(len(m.outDefs)))
			m.outDefs = append(m.outDefs, ends[s]...)
		}
	}
	m.outStart = append(m.outStart, uint32(len(m.outDefs)))
	m.trans = make([]uint32, len(next))
	for s := range ends {
		for c := 0; c < stride; c++ {
			m.trans[int(id[s])+c] = id[next[s*stride+c]]
		}
	}
	return m
}

// scan runs content through the automaton once and returns the set of
// definitions that occur in it, as a bitset indexed by definition. buf is
// used for the set when it is large enough.
func (m *matcher) scan(content []byte, buf []uint64) []uint64 {
	hits := m.hits(buf)
	a := m.automaton()
	s := uint32(0)
	for i, b := range content {
		s = a.Step(s, b)
		if a.Ends(s) {
			a.Record(hits, s, content[:i+1])
		}
	}
	return hits
}

// hits returns an empty hit set, in buf when it is large enough.
func (m *matcher) hits(buf []uint64) []uint64 {
	words := (len(m.names) + 63) / 64
	if words > len(buf) {
		return make([]uint64, words)
	}
	clear(buf[:words])
	return buf[:words]
}

func (m *matcher) automaton() Automaton { return Automaton{m: m, trans: m.trans} }

// Automaton is a RuleSet's compiled DFA, for a caller that runs the scan
// inside a loop of its own over a body, as static analysis does to read each
// body once. From state 0, each byte steps the state; where Ends reports that
// definitions end, Record marks them in the hit set, given every byte
// consumed so far:
//
//	for i, b := range body {
//		s = a.Step(s, b)
//		if a.Ends(s) {
//			a.Record(hits, s, body[:i+1])
//		}
//	}
//
// It is a value of four words whose Step and Ends inline, so such a loop
// keeps it in registers. Match runs exactly this loop.
type Automaton struct {
	m     *matcher
	trans []uint32 // m.trans
}

// Step returns the state after consuming b in state s.
func (a Automaton) Step(s uint32, b byte) uint32 { return a.trans[s+uint32(a.m.class[b])] }

// Ends reports whether some definition ends at state s.
func (a Automaton) Ends(s uint32) bool { return s >= a.m.outMin }

// Record marks in hits the definitions ending at state s, the automaton
// having just consumed all of seen.
func (a Automaton) Record(hits []uint64, s uint32, seen []byte) {
	m := a.m
	k := (s - m.outMin) / m.stride
	for _, d := range m.outDefs[m.outStart[k]:m.outStart[k+1]] {
		if has(hits, int(d)) {
			continue
		}
		if raw := m.exact[d]; raw != nil && !bytes.Equal(raw, seen[len(seen)-len(raw):]) {
			continue
		}
		hits[d/64] |= 1 << (d % 64)
	}
}

func has(hits []uint64, d int) bool { return hits[d/64]&(1<<(d%64)) != 0 }

// eval reports whether the rule's condition holds over hits, and how many of
// the rule's definitions are in hits.
func (r *ruleProg) eval(hits []uint64) (matched bool, n int) {
	for d := r.lo; d < r.hi; d++ {
		if has(hits, d) {
			n++
		}
	}
	switch r.cond.Kind {
	case "any":
		matched = n > 0
	case "all":
		matched = n > 0 && n == r.hi-r.lo
	case "n-of":
		matched = n >= r.cond.N
	case "expr":
		matched = evalExpr(r.cond.Expr, hits, r.lo)
	}
	return matched, n
}

// evalExpr evaluates e over hits; base is the index of the rule's first
// definition.
func evalExpr(e *Expr, hits []uint64, base int) bool {
	switch e.Op {
	case "id":
		return has(hits, base+e.def)
	case "and":
		return evalExpr(e.Left, hits, base) && evalExpr(e.Right, hits, base)
	case "or":
		return evalExpr(e.Left, hits, base) || evalExpr(e.Right, hits, base)
	default: // "not"
		return !evalExpr(e.Left, hits, base)
	}
}
