package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"srlproc/internal/isa"
)

// Source supplies the simulator's dynamic micro-op stream in program order.
// Generator implements it with synthetic workloads; Reader implements it
// over recorded trace files, so real traces (converted to this format) can
// drive the machine instead.
type Source interface {
	Next() isa.Uop
}

// Generator implements Source.
var _ Source = (*Generator)(nil)

// Trace file format: a fixed magic/version header followed by fixed-width
// little-endian records. The format is deliberately dumb — one 44-byte
// record per micro-op — so that converters from other simulators' trace
// formats are trivial to write.
const (
	traceMagic   = uint32(0x53524C54) // "SRLT"
	traceVersion = uint32(1)
	recordBytes  = 44

	// Ordering-flag bits in record byte 38 (previously reserved, so
	// version-1 traces written before the flags existed read back as
	// plain loads and stores).
	flagAcq = 1 << 0
	flagRel = 1 << 1
)

// Writer serialises a micro-op stream to a trace file.
type Writer struct {
	w   *bufio.Writer
	n   uint64
	err error
}

// NewWriter writes a trace header to w and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one micro-op record.
func (t *Writer) Write(u isa.Uop) error {
	if t.err != nil {
		return t.err
	}
	var rec [recordBytes]byte
	binary.LittleEndian.PutUint64(rec[0:], u.Seq)
	binary.LittleEndian.PutUint64(rec[8:], u.PC)
	binary.LittleEndian.PutUint64(rec[16:], u.Addr)
	binary.LittleEndian.PutUint64(rec[24:], u.MemSeq)
	rec[32] = byte(u.Class)
	rec[33] = byte(u.Src1)
	rec[34] = byte(u.Src2)
	rec[35] = byte(u.Dst)
	rec[36] = u.Size
	if u.Taken {
		rec[37] = 1
	}
	// rec[38] is the ordering-flag byte; rec[39:44] stay reserved. Old
	// readers ignore the byte and old traces carry zeros, so the format
	// version is unchanged.
	if u.Acq {
		rec[38] |= flagAcq
	}
	if u.Rel {
		rec[38] |= flagRel
	}
	_, t.err = t.w.Write(rec[:])
	if t.err == nil {
		t.n++
	}
	return t.err
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.n }

// Flush flushes buffered records to the underlying writer.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Record captures n micro-ops from src into w (a convenience for building
// trace files from the synthetic generators).
func Record(w io.Writer, src Source, n uint64) error {
	tw, err := NewWriter(w)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		if err := tw.Write(src.Next()); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// WriteRecords serialises a complete micro-op slice as one trace file — the
// writer the divergence minimizer uses to emit replayable traces.
func WriteRecords(w io.Writer, uops []isa.Uop) error {
	tw, err := NewWriter(w)
	if err != nil {
		return err
	}
	for _, u := range uops {
		if err := tw.Write(u); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// decodeRecord parses record i (counting from 0) of a trace. A class or
// register number outside the ISA is an error rather than a micro-op — the
// simulator indexes per-class and per-register tables with them directly —
// and so is a sequence number other than i+1 or a producer reference
// (MemSeq) that is not older than its load: the window relies on dense
// program order, and looping a trace shifts every number by one pass.
func decodeRecord(rec *[recordBytes]byte, i uint64) (isa.Uop, error) {
	u := isa.Uop{
		Seq:    binary.LittleEndian.Uint64(rec[0:]),
		PC:     binary.LittleEndian.Uint64(rec[8:]),
		Addr:   binary.LittleEndian.Uint64(rec[16:]),
		MemSeq: binary.LittleEndian.Uint64(rec[24:]),
		Class:  isa.Class(rec[32]),
		Src1:   int8(rec[33]),
		Src2:   int8(rec[34]),
		Dst:    int8(rec[35]),
		Size:   rec[36],
		Taken:  rec[37] != 0,
		Acq:    rec[38]&flagAcq != 0,
		Rel:    rec[38]&flagRel != 0,
	}
	if u.Class >= isa.NumClasses {
		return isa.Uop{}, fmt.Errorf("class %d out of range", rec[32])
	}
	for _, r := range [...]int8{u.Src1, u.Src2, u.Dst} {
		if r != isa.NoReg && (r < 0 || r >= isa.NumArchRegs) {
			return isa.Uop{}, fmt.Errorf("register %d out of range", r)
		}
	}
	if u.Seq != i+1 {
		return isa.Uop{}, fmt.Errorf("sequence number %d, want %d", u.Seq, i+1)
	}
	if u.MemSeq >= u.Seq {
		return isa.Uop{}, fmt.Errorf("producer %d is not older than the load", u.MemSeq)
	}
	return u, nil
}

// ReadRecords parses a whole trace file into memory (one pass, no looping) —
// the counterpart of WriteRecords for replaying minimized divergence traces.
func ReadRecords(rd io.Reader) ([]isa.Uop, error) {
	br := bufio.NewReaderSize(rd, 1<<16)
	if err := readHeader(br); err != nil {
		return nil, err
	}
	var uops []isa.Uop
	for {
		var rec [recordBytes]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return uops, nil
			}
			return nil, fmt.Errorf("trace: reading record %d: %w", len(uops), err)
		}
		u, err := decodeRecord(&rec, uint64(len(uops)))
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", len(uops), err)
		}
		uops = append(uops, u)
	}
}

// readHeader reads and checks the magic/version header.
func readHeader(br *bufio.Reader) error {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != traceMagic {
		return fmt.Errorf("trace: bad magic %#x", got)
	}
	if got := binary.LittleEndian.Uint32(hdr[4:]); got != traceVersion {
		return fmt.Errorf("trace: unsupported version %d", got)
	}
	return nil
}

// Reader replays a recorded trace as a Source. When the trace is exhausted
// it loops from the beginning (re-numbering sequence numbers so they stay
// dense and monotonic), because the simulator expects an unbounded stream;
// looping requires the underlying reader to be an io.ReadSeeker.
type Reader struct {
	rs      io.ReadSeeker
	br      *bufio.Reader
	seqBase uint64
	lastSeq uint64
	seqSpan uint64 // sequence numbers consumed by one full pass
	err     error
}

// NewReader validates the header and every record and returns a replaying
// Source. Checking the records here makes a bad one an error before the
// run rather than a silent switch to no-op micro-ops in the middle of it.
// A trace needs at least one whole record: an empty one has nothing to
// loop over.
func NewReader(rs io.ReadSeeker) (*Reader, error) {
	r := &Reader{rs: rs}
	if err := r.rewind(); err != nil {
		return nil, err
	}
	for i := uint64(0); ; i++ {
		var rec [recordBytes]byte
		if _, err := io.ReadFull(r.br, rec[:]); err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
			}
			if i == 0 {
				return nil, fmt.Errorf("trace: no records")
			}
			break
		}
		if _, err := decodeRecord(&rec, i); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
	}
	if err := r.rewind(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) rewind() error {
	if _, err := r.rs.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r.br = bufio.NewReaderSize(r.rs, 1<<16)
	return readHeader(r.br)
}

// Err returns the first error encountered while replaying (io errors make
// Next return harmless no-op micro-ops rather than panicking mid-run).
func (r *Reader) Err() error { return r.err }

// Next implements Source.
func (r *Reader) Next() isa.Uop {
	if r.err != nil {
		r.lastSeq++
		return isa.Uop{Seq: r.lastSeq, Class: isa.IntALU, Src1: isa.NoReg, Src2: isa.NoReg, Dst: 0}
	}
	var rec [recordBytes]byte
	if _, err := io.ReadFull(r.br, rec[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Loop: replay from the start with shifted sequence numbers.
			r.seqBase = r.lastSeq
			r.seqSpan = 0
			if err := r.rewind(); err != nil {
				r.err = err
				return r.Next()
			}
			return r.Next()
		}
		r.err = err
		return r.Next()
	}
	u, err := decodeRecord(&rec, r.seqSpan)
	if err != nil {
		r.err = fmt.Errorf("trace: record %d: %w", r.seqSpan, err)
		return r.Next()
	}
	u.Seq += r.seqBase
	if u.MemSeq != 0 {
		u.MemSeq += r.seqBase
	}
	r.lastSeq = u.Seq
	r.seqSpan++
	return u
}
