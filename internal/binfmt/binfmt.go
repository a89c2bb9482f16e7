// Package binfmt provides executable-format detection, packer-signature
// scanning and a synthetic binary builder.
//
// The paper's sanity checks keep only samples whose magic number identifies an
// executable container (PE, ELF or JAR), and its obfuscation analysis (Table X)
// attributes samples to known packers (UPX, NSIS, SFX, INNO, Enigma, ...) by
// signature. Because the real corpus is unavailable, the builder in this
// package fabricates structurally plausible binaries that embed a behaviour
// specification; the detection code works identically on real or fabricated
// bytes.
package binfmt

import (
	"bytes"
	"crypto/md5"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"iter"
	"strings"

	"cryptomining/internal/model"
)

// Magic numbers and structural markers for the formats the pipeline accepts.
var (
	magicMZ    = []byte{'M', 'Z'}
	magicELF   = []byte{0x7f, 'E', 'L', 'F'}
	magicZIP   = []byte{'P', 'K', 0x03, 0x04}
	magicPENew = []byte{'P', 'E', 0x00, 0x00}
	// JAR files are ZIP archives containing a META-INF/MANIFEST.MF entry.
	jarManifest = []byte("META-INF/MANIFEST.MF")
	scriptShe   = []byte("#!")
	htmlDoctype = []byte("<!DOCTYPE html")
	htmlTag     = []byte("<html")
)

// DetectFormat identifies the executable container format of content by its
// magic number, mirroring the paper's "is it an executable?" sanity check.
func DetectFormat(content []byte) model.ExecutableFormat {
	switch {
	case len(content) >= 2 && bytes.Equal(content[:2], magicMZ):
		return model.FormatPE
	case len(content) >= 4 && bytes.Equal(content[:4], magicELF):
		return model.FormatELF
	case len(content) >= 4 && bytes.Equal(content[:4], magicZIP):
		if bytes.Contains(content, jarManifest) {
			return model.FormatJAR
		}
		return model.FormatZIP
	case len(content) >= 2 && bytes.Equal(content[:2], scriptShe):
		return model.FormatScript
	case bytes.HasPrefix(bytes.TrimLeft(content, " \t\r\n"), htmlDoctype),
		bytes.HasPrefix(bytes.TrimLeft(content, " \t\r\n"), htmlTag):
		return model.FormatHTML
	default:
		return model.FormatUnknown
	}
}

// IsExecutable reports whether the format is one of the containers kept by the
// paper's sanity checks (PE, ELF, JAR).
func IsExecutable(f model.ExecutableFormat) bool {
	switch f {
	case model.FormatPE, model.FormatELF, model.FormatJAR:
		return true
	default:
		return false
	}
}

// PackerSignature associates a packer name with a byte marker found in packed
// binaries. Signature scanning approximates the F-Prot unpacker identification
// the paper relies on.
type PackerSignature struct {
	Name   string
	Marker []byte
	// Compression marks signatures that identify compression-only containers
	// (e.g. CAB, ARJ), which the paper does not count as obfuscation.
	Compression bool
}

// DefaultPackerSignatures lists the packers and compressors of Table X.
func DefaultPackerSignatures() []PackerSignature {
	return []PackerSignature{
		{Name: "UPX", Marker: []byte("UPX!")},
		{Name: "UPX", Marker: []byte("UPX0")},
		{Name: "NSIS", Marker: []byte("Nullsoft.NSIS.exehead")},
		{Name: "NSIS", Marker: []byte("NullsoftInst")},
		{Name: "maxorder", Marker: []byte("maxorder")},
		{Name: "SFX", Marker: []byte("WinRAR SFX")},
		{Name: "SFX", Marker: []byte("7-Zip SFX")},
		{Name: "INNO", Marker: []byte("Inno Setup")},
		{Name: "eval", Marker: []byte("eval(function(p,a,c,k,e,d)")},
		{Name: "docwrite", Marker: []byte("document.write(unescape(")},
		{Name: "Enigma", Marker: []byte("Enigma protector")},
		{Name: "ASPack", Marker: []byte(".aspack")},
		{Name: "PECompact", Marker: []byte("PECompact2")},
		{Name: "Themida", Marker: []byte(".themida")},
		{Name: "MPRESS", Marker: []byte(".MPRESS1")},
		{Name: "ARJ", Marker: []byte{0x60, 0xEA}, Compression: true},
		{Name: "CAB", Marker: []byte("MSCF"), Compression: true},
		{Name: "AutoIt", Marker: []byte("AU3!EA06")},
	}
}

// Scanner detects packers by signature.
type Scanner struct {
	sigs []PackerSignature
}

// NewScanner returns a Scanner using the provided signatures, or the defaults
// when sigs is empty.
func NewScanner(sigs ...PackerSignature) *Scanner {
	if len(sigs) == 0 {
		sigs = DefaultPackerSignatures()
	}
	return &Scanner{sigs: sigs}
}

// MinAnywhereMarker is the length from which a packer marker matches
// anywhere in content. Shorter markers would false-positive inside
// high-entropy data, so they only match at the start of the file (where real
// container magics live).
const MinAnywhereMarker = 4

// sigMatches reports whether a signature matches content.
func sigMatches(sig PackerSignature, content []byte) bool {
	if len(sig.Marker) < MinAnywhereMarker {
		return bytes.HasPrefix(content, sig.Marker)
	}
	return bytes.Contains(content, sig.Marker)
}

// DetectPacker returns the name of the first packer whose marker appears in
// content, skipping compression-only signatures. It returns "" when no packer
// is found.
func (s *Scanner) DetectPacker(content []byte) string {
	for _, sig := range s.sigs {
		if sig.Compression {
			continue
		}
		if sigMatches(sig, content) {
			return sig.Name
		}
	}
	return ""
}

// DetectCompression returns the name of a compression container identified in
// content, or "".
func (s *Scanner) DetectCompression(content []byte) string {
	for _, sig := range s.sigs {
		if !sig.Compression {
			continue
		}
		if sigMatches(sig, content) {
			return sig.Name
		}
	}
	return ""
}

// Section is a named region of a synthetic binary.
type Section struct {
	Name string
	Data []byte
}

// Builder fabricates structurally plausible binaries for the ecosystem
// simulator: a correct magic header, a section table, string regions where the
// static analyzer can find embedded wallets/pool URLs, and optional packer
// markers or high-entropy padding.
type Builder struct {
	format   model.ExecutableFormat
	sections []Section
	strings  []string
	packer   string
	padding  []byte
}

// NewBuilder creates a Builder for the given container format. Unsupported
// formats fall back to PE.
func NewBuilder(format model.ExecutableFormat) *Builder {
	switch format {
	case model.FormatPE, model.FormatELF, model.FormatJAR, model.FormatScript:
	default:
		format = model.FormatPE
	}
	return &Builder{format: format}
}

// AddSection appends a named section with raw data.
func (b *Builder) AddSection(name string, data []byte) *Builder {
	b.sections = append(b.sections, Section{Name: name, Data: data})
	return b
}

// AddString embeds a printable string (NUL-terminated in the output) that
// static string extraction will recover — e.g. a wallet address, a pool URL or
// a command line template.
func (b *Builder) AddString(s string) *Builder {
	b.strings = append(b.strings, s)
	return b
}

// WithPacker embeds the marker of the named packer (as found in
// DefaultPackerSignatures). Unknown names embed the name itself so tests can
// fabricate novel packers.
func (b *Builder) WithPacker(name string) *Builder {
	b.packer = name
	return b
}

// WithPadding appends raw padding bytes (typically high-entropy data produced
// by the caller to emulate an encrypted payload).
func (b *Builder) WithPadding(padding []byte) *Builder {
	b.padding = padding
	return b
}

// Build assembles the binary image.
func (b *Builder) Build() []byte {
	var out bytes.Buffer
	switch b.format {
	case model.FormatPE:
		b.writePEHeader(&out)
	case model.FormatELF:
		b.writeELFHeader(&out)
	case model.FormatJAR:
		out.Write(magicZIP)
		out.Write(jarManifest)
		out.WriteString("\nManifest-Version: 1.0\nMain-Class: miner.Main\n")
	case model.FormatScript:
		out.WriteString("#!/bin/sh\n")
	}
	if b.packer != "" {
		marker := b.packer
		for _, sig := range DefaultPackerSignatures() {
			if sig.Name == b.packer {
				marker = string(sig.Marker)
				break
			}
		}
		out.WriteString(marker)
		out.WriteByte(0)
	}
	for _, sec := range b.sections {
		out.WriteString(sec.Name)
		out.WriteByte(0)
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(sec.Data)))
		out.Write(lenBuf[:])
		out.Write(sec.Data)
	}
	for _, s := range b.strings {
		out.WriteString(s)
		out.WriteByte(0)
	}
	out.Write(b.padding)
	return out.Bytes()
}

func (b *Builder) writePEHeader(out *bytes.Buffer) {
	// DOS header: "MZ", stub padding, e_lfanew pointing at the PE signature.
	out.Write(magicMZ)
	stub := make([]byte, 58) // bytes 2..59
	out.Write(stub)
	var lfanew [4]byte
	binary.LittleEndian.PutUint32(lfanew[:], 64)
	out.Write(lfanew[:]) // offset 60..63
	out.Write(magicPENew)
	// Minimal COFF header: machine=0x14c (i386), 2 sections.
	coff := make([]byte, 20)
	binary.LittleEndian.PutUint16(coff[0:2], 0x014c)
	binary.LittleEndian.PutUint16(coff[2:4], uint16(len(b.sections)))
	out.Write(coff)
	out.WriteString(".text\x00\x00\x00")
	out.WriteString(".data\x00\x00\x00")
}

func (b *Builder) writeELFHeader(out *bytes.Buffer) {
	out.Write(magicELF)
	// EI_CLASS=2 (64-bit), EI_DATA=1 (little endian), EI_VERSION=1.
	out.Write([]byte{2, 1, 1, 0})
	out.Write(make([]byte, 8)) // EI_PAD
	hdr := make([]byte, 48)
	binary.LittleEndian.PutUint16(hdr[0:2], 2)    // ET_EXEC
	binary.LittleEndian.PutUint16(hdr[2:4], 0x3e) // EM_X86_64
	out.Write(hdr)
	out.WriteString(".text\x00.rodata\x00")
}

// Hashes returns the hex-encoded SHA-256 and MD5 of content, the two digests
// feeds and OSINT IoCs key samples by.
func Hashes(content []byte) (sha256Hex, md5Hex string) {
	s := sha256.Sum256(content)
	m := md5.Sum(content)
	return hex.EncodeToString(s[:]), hex.EncodeToString(m[:])
}

// printable is 1 for the printable ASCII bytes, 0x20 through 0x7e.
var printable = func() (t [256]uint8) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = 1
	}
	return t
}()

// Printable is 1 when c is printable ASCII, 0 otherwise: the class the
// strings pass splits a body into runs by.
func Printable(c byte) int { return int(printable[c]) }

// printableRuns yields every run of at least minLen (4 when not positive)
// printable ASCII bytes in content, in order of appearance: the strings the
// classic `strings` pass of static binary analysis reports.
func printableRuns(content []byte, minLen int) iter.Seq[[]byte] {
	if minLen <= 0 {
		minLen = 4
	}
	return func(yield func([]byte) bool) {
		// In a packed body whether the next byte is printable is a coin
		// toss, so the run length is kept by masking, not by a branch on the
		// byte; the branch taken is the rare end of a long enough run.
		run := 0
		for i, c := range content {
			p := int(printable[c])
			if run >= minLen && p == 0 && !yield(content[i-run:i]) {
				return
			}
			run = (run + 1) & -p
		}
		if run >= minLen {
			yield(content[len(content)-run:])
		}
	}
}

// ExtractStrings returns printable ASCII strings of at least minLen characters
// found in content, in order of appearance.
func ExtractStrings(content []byte, minLen int) []string {
	var out []string
	for run := range printableRuns(content, minLen) {
		out = append(out, string(run))
	}
	return out
}

// StringsText returns what strings.Join(ExtractStrings(content, minLen), "\n")
// returns, and how many strings that is, in one allocation of exactly the
// text's size: the form the identifier and endpoint scanners read.
func StringsText(content []byte, minLen int) (text string, n int) {
	size := 0
	for run := range printableRuns(content, minLen) {
		size += len(run) + 1
		n++
	}
	if n == 0 {
		return "", 0
	}
	var b strings.Builder
	b.Grow(size - 1)
	for run := range printableRuns(content, minLen) {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.Write(run)
	}
	return b.String(), n
}

// String renders a section for debugging.
func (s Section) String() string {
	return fmt.Sprintf("%s(%d bytes)", s.Name, len(s.Data))
}
