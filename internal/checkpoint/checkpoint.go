// Package checkpoint implements the versioned, content-addressed
// warm-state checkpoint format (DESIGN.md §11). A checkpoint captures a
// system after Prewarm + WarmFunctional — the expensive part of every
// paper-scale run — so later runs with the same warm-relevant inputs
// restore it in roughly file-read time instead of re-simulating tens of
// millions of functional accesses.
//
// # Format
//
//	magic    "SILOCKPT"                  (8 bytes)
//	version  uint32 LE                   (FormatVersion)
//	key      length-prefixed string      (robust.Key over warm inputs)
//	meta     length-prefixed string      (human-readable JSON, for -checkpoint-ls)
//	payload  section-framed component snapshots
//	crc      uint32 LE                   (CRC-32C over key, meta and payload)
//
// Every scalar is little-endian. Slices are a uint64 length followed by
// the elements. Sections are length-prefixed names written by each
// component's Snapshot and verified by its Restore, so a reader that
// drifts out of sync fails on the next section check instead of
// silently misinterpreting bytes. The trailing CRC-32C (Castagnoli,
// hardware-accelerated on amd64/arm64) is verified by Reader.Finish
// before a restored system is accepted.
//
// Every failure mode — torn file, flipped byte, stale version, key
// mismatch — surfaces as an error from Open/Reader methods/Finish,
// never a panic: callers fall back to a from-scratch build.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ioBufSize sizes the bufio layers; checkpoints stream hundreds of
// megabytes at Scale 1, so a generous buffer keeps syscall counts low.
const ioBufSize = 1 << 20

func newBufWriter(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, ioBufSize) }
func newBufReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, ioBufSize) }

// Magic identifies a checkpoint file.
const Magic = "SILOCKPT"

// FormatVersion is bumped whenever any component's snapshot layout
// changes; a mismatch makes Open fail and the caller rebuild from
// scratch.
const FormatVersion = 1

// FormatTag names the format generation inside content-hash keys, so
// key derivation itself is versioned alongside the byte layout.
const FormatTag = "ckpt-v1"

// maxSliceLen bounds slice lengths read from a file before the CRC has
// been verified, so a corrupt length cannot trigger a multi-gigabyte
// allocation. The largest legitimate slice is a Scale-1 line-table slab
// (tens of millions of slots), far below this.
const maxSliceLen = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshotter is the per-component seam: Snapshot serializes the
// component's mutable state, Restore overwrites a freshly constructed
// component with it. Restore must validate geometry against the
// receiver (built from the live Config) and return an error — never
// panic — on any mismatch.
type Snapshotter interface {
	Snapshot(w *Writer)
	Restore(r *Reader) error
}

// Writer serializes checkpoint payloads with a sticky error and a
// running CRC. All methods are no-ops once an error is set.
type Writer struct {
	w       io.Writer
	crc     uint32
	err     error
	scratch [8]byte
	buf     []byte // bulk-slice staging
}

// NewWriter wraps w. Callers normally use Save instead.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the sticky error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, p)
	if _, err := w.w.Write(p); err != nil {
		w.err = err
	}
}

// writeRaw bypasses the CRC (magic and version only).
func (w *Writer) writeRaw(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(p); err != nil {
		w.err = err
	}
}

// U64 writes one little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:], v)
	w.write(w.scratch[:8])
}

// U32 writes one little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.scratch[:4], v)
	w.write(w.scratch[:4])
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.scratch[0] = v
	w.write(w.scratch[:1])
}

// I64 writes one little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.write([]byte(s))
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	w.write(p)
}

const bulkChunk = 8192 // elements per staging flush

// U64s writes a length-prefixed []uint64 in bulk chunks.
func (w *Writer) U64s(s []uint64) {
	w.U64(uint64(len(s)))
	if w.buf == nil {
		w.buf = make([]byte, bulkChunk*8)
	}
	for len(s) > 0 {
		n := len(s)
		if n > bulkChunk {
			n = bulkChunk
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(w.buf[i*8:], s[i])
		}
		w.write(w.buf[:n*8])
		s = s[n:]
	}
}

// U32s writes a length-prefixed []uint32 in bulk chunks.
func (w *Writer) U32s(s []uint32) {
	w.U64(uint64(len(s)))
	if w.buf == nil {
		w.buf = make([]byte, bulkChunk*8)
	}
	for len(s) > 0 {
		n := len(s)
		if n > bulkChunk*2 {
			n = bulkChunk * 2
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(w.buf[i*4:], s[i])
		}
		w.write(w.buf[:n*4])
		s = s[n:]
	}
}

// U8s writes a length-prefixed []uint8.
func (w *Writer) U8s(s []uint8) { w.Bytes(s) }

// Section writes a section marker; Reader.Section verifies it, so a
// producer/consumer drift fails fast with a named location.
func (w *Writer) Section(name string) { w.String(name) }

// Finish writes the trailing CRC. Save calls it automatically; it is
// exported for in-memory Writer/Reader round trips (tests,
// size probes).
func (w *Writer) Finish() error {
	if w.err != nil {
		return w.err
	}
	binary.LittleEndian.PutUint32(w.scratch[:4], w.crc)
	w.writeRaw(w.scratch[:4])
	return w.err
}

// Reader deserializes checkpoint payloads with a sticky error and a
// running CRC mirroring Writer's.
type Reader struct {
	r       io.Reader
	crc     uint32
	err     error
	scratch [8]byte
	buf     []byte

	// Header fields populated by Open.
	Key  string
	Meta string

	close io.Closer
}

// NewReader wraps r. Callers normally use Open instead.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = fmt.Errorf("checkpoint: truncated: %w", err)
		return false
	}
	r.crc = crc32.Update(r.crc, castagnoli, p)
	return true
}

// readRaw bypasses the CRC (magic, version, trailing checksum).
func (r *Reader) readRaw(p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = fmt.Errorf("checkpoint: truncated: %w", err)
		return false
	}
	return true
}

// U64 reads one little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.read(r.scratch[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.scratch[:8])
}

// U32 reads one little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.read(r.scratch[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.scratch[:4])
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.read(r.scratch[:1]) {
		return 0
	}
	return r.scratch[0]
}

// I64 reads one little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

func (r *Reader) sliceLen() int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > maxSliceLen {
		r.fail(fmt.Errorf("checkpoint: corrupt slice length %d", n))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return ""
	}
	p := make([]byte, n)
	if !r.read(p) {
		return ""
	}
	return string(p)
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := r.sliceLen()
	if r.err != nil {
		return nil
	}
	p := make([]byte, n)
	if n > 0 && !r.read(p) {
		return nil
	}
	return p
}

// U64s reads a length-prefixed []uint64 in bulk chunks.
func (r *Reader) U64s() []uint64 {
	n := r.sliceLen()
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	if r.buf == nil {
		r.buf = make([]byte, bulkChunk*8)
	}
	for i := 0; i < n; {
		c := n - i
		if c > bulkChunk {
			c = bulkChunk
		}
		if !r.read(r.buf[:c*8]) {
			return nil
		}
		for j := 0; j < c; j++ {
			out[i+j] = binary.LittleEndian.Uint64(r.buf[j*8:])
		}
		i += c
	}
	return out
}

// U32s reads a length-prefixed []uint32 in bulk chunks.
func (r *Reader) U32s() []uint32 {
	n := r.sliceLen()
	if r.err != nil {
		return nil
	}
	out := make([]uint32, n)
	if r.buf == nil {
		r.buf = make([]byte, bulkChunk*8)
	}
	for i := 0; i < n; {
		c := n - i
		if c > bulkChunk*2 {
			c = bulkChunk * 2
		}
		if !r.read(r.buf[:c*4]) {
			return nil
		}
		for j := 0; j < c; j++ {
			out[i+j] = binary.LittleEndian.Uint32(r.buf[j*4:])
		}
		i += c
	}
	return out
}

// U8s reads a length-prefixed []uint8.
func (r *Reader) U8s() []uint8 { return r.Bytes() }

// Section verifies the next section marker.
func (r *Reader) Section(name string) error {
	got := r.String()
	if r.err != nil {
		return r.err
	}
	if got != name {
		r.fail(fmt.Errorf("checkpoint: section mismatch: want %q, got %q", name, got))
	}
	return r.err
}

// Finish verifies the trailing CRC over everything read so far. It must
// be called (and succeed) before a restored system is trusted.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc
	if !r.readRaw(r.scratch[:4]) {
		return r.err
	}
	got := binary.LittleEndian.Uint32(r.scratch[:4])
	if got != want {
		r.fail(fmt.Errorf("checkpoint: checksum mismatch (file %08x, computed %08x)", got, want))
	}
	return r.err
}

// Close releases the underlying file when the Reader came from Open.
func (r *Reader) Close() error {
	if r.close != nil {
		err := r.close.Close()
		r.close = nil
		return err
	}
	return nil
}

// Save streams a checkpoint to path atomically: payload is written to a
// same-directory temp file and moved into place with fsync + rename
// (robust.CommitFile), so a crash mid-save never leaves a torn
// checkpoint under the final name. Within one process the experiments
// harness saves each key once (single-flight, DESIGN.md §11); processes
// sharing a directory may still save the same key concurrently, which is
// benign — each writes its own temp file and the last rename wins with
// identical content.
func Save(path, key, meta string, write func(*Writer) error) (err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(name)
		}
	}()

	bw := newBufWriter(tmp)
	w := NewWriter(bw)
	w.writeRaw([]byte(Magic))
	var vbuf [4]byte
	binary.LittleEndian.PutUint32(vbuf[:], FormatVersion)
	w.writeRaw(vbuf[:])
	w.String(key)
	w.String(meta)
	if err := write(w); err != nil {
		return err
	}
	if err := w.Finish(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return err
	}
	tmp = nil
	if err := commitFile(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// commitFile atomically moves a finished temp file into place (fsync +
// rename + directory fsync). It mirrors robust.CommitFile, which this
// package cannot import: robust depends on sim (fault injection), and
// sim's engine snapshot seam depends on this package.
func commitFile(tmp, path string) error {
	f, err := os.Open(tmp)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ErrKeyMismatch reports a checkpoint whose content key does not match
// the caller's expectation — same filename, different warm inputs (or a
// renamed file). Callers rebuild from scratch.
var ErrKeyMismatch = errors.New("checkpoint: key mismatch")

// ErrVersionMismatch reports a checkpoint written by a different format
// generation. Callers rebuild from scratch.
var ErrVersionMismatch = errors.New("checkpoint: format version mismatch")

// Open validates a checkpoint header against wantKey and returns a
// Reader positioned at the payload. Any failure — missing file, bad
// magic, stale version, foreign key — is an error; the caller falls
// back to a from-scratch build. An empty wantKey skips the key check
// (used by -checkpoint-ls, which inspects every file).
func Open(path, wantKey string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := NewReader(newBufReader(f))
	r.close = f
	var hdr [len(Magic) + 4]byte
	if !r.readRaw(hdr[:]) {
		f.Close()
		return nil, r.err
	}
	if string(hdr[:len(Magic)]) != Magic {
		f.Close()
		return nil, fmt.Errorf("checkpoint: bad magic in %s", path)
	}
	version := binary.LittleEndian.Uint32(hdr[len(Magic):])
	if version != FormatVersion {
		f.Close()
		return nil, fmt.Errorf("%w: file v%d, supported v%d", ErrVersionMismatch, version, FormatVersion)
	}
	r.Key = r.String()
	r.Meta = r.String()
	if r.err != nil {
		f.Close()
		return nil, r.err
	}
	if wantKey != "" && r.Key != wantKey {
		f.Close()
		return nil, fmt.Errorf("%w: file %s, want %s", ErrKeyMismatch, r.Key, wantKey)
	}
	return r, nil
}
