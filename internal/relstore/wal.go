package relstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// walOp codes.
const (
	opPut    = "put"
	opDelete = "del"
	opSeq    = "seq"
)

// walOp is one mutation within a committed transaction. A put carries
// its row as rowBin, the binary rowcodec form, captured under db.mu at
// enqueue time, so the bytes a frame ships are fixed before any schema
// upgrade can follow.
type walOp struct {
	Op     string
	Table  string
	ID     string
	Seq    int64
	rowBin []byte
}

// walRecord is one framed WAL entry: either a table creation or a batch
// of operations from a single transaction.
type walRecord struct {
	CreateTable *Schema
	Ops         []walOp
}

// walFile is the file surface the segment writer appends through. It is
// an interface so tests can interpose a failpoint wrapper (crashFile)
// that cuts writes after a byte budget, simulating a crash at an exact
// on-disk offset.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// The WAL is a sequence of numbered segment files, wal-00000001.seg,
// wal-00000002.seg, ... The writer appends to the highest-numbered
// (active) segment and rotates to a fresh one once the active segment
// exceeds the configured size; sealed segments are immutable and are
// deleted only by compaction, after a snapshot covering them is durable.
//
// Within a segment, records are framed as:
//
//	uint32 little-endian payload length
//	uint32 little-endian CRC-32 (IEEE) of the payload
//	payload
//
// The payload's first byte names its kind: binRecordTag opens a batch of
// operations, '{' a CreateTable record (see walcodec.go). Any other
// payload whose checksum holds is refused.
//
// A torn final frame (short write during a crash) is detected by length
// or checksum mismatch on replay. It is tolerated — and truncated away —
// only in the highest-numbered segment; anywhere else it is mid-sequence
// corruption and the store refuses to open.
const (
	segmentPrefix = "wal-"
	segmentSuffix = ".seg"
)

// segmentName renders the file name of segment seq.
func segmentName(seq int64) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix)
}

// parseSegmentName extracts the sequence number from a segment file name.
func parseSegmentName(name string) (int64, bool) {
	var seq int64
	if _, err := fmt.Sscanf(name, segmentPrefix+"%d"+segmentSuffix, &seq); err != nil {
		return 0, false
	}
	if seq <= 0 || name != segmentName(seq) {
		return 0, false
	}
	return seq, true
}

// listSegments returns the sequence numbers of all segment files in dir,
// ascending.
func listSegments(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// walWriter appends framed records to the active segment file.
type walWriter struct {
	f    walFile
	buf  *bufio.Writer
	sync bool
	// size counts the frame bytes appended to this segment, including
	// bytes still sitting in the write buffer. It drives rotation.
	size int64
}

// openSegment creates the segment file at path and returns a writer for
// it. Segments are always created fresh (O_EXCL — an active segment
// number is never reused, so a pre-existing file means another process
// owns the store): recovery never appends after pre-existing content,
// so a repaired torn tail can never shadow later writes. The parent
// directory is fsynced so the new entry — and with it every commit
// acknowledged into this segment — survives power loss. hook, when
// non-nil, wraps the file (failpoint injection for crash tests).
func openSegment(path string, syncEveryCommit bool, hook func(walFile) walFile) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("relstore: open wal segment: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	var wf walFile = f
	if hook != nil {
		wf = hook(wf)
	}
	return &walWriter{f: wf, buf: bufio.NewWriterSize(wf, 64<<10), sync: syncEveryCommit}, nil
}

// openSegmentAppend reopens an existing segment for append at its
// current length. Only follower stores use it: their newest local
// segment mirrors a leader segment that may still be growing, so
// replication must resume appending after the locally durable prefix
// (already repaired to a frame boundary by recovery) rather than start a
// fresh file.
func openSegmentAppend(path string, syncEveryCommit bool, hook func(walFile) walFile) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("relstore: reopen wal segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("relstore: stat wal segment: %w", err)
	}
	var wf walFile = f
	if hook != nil {
		wf = hook(wf)
	}
	return &walWriter{f: wf, buf: bufio.NewWriterSize(wf, 64<<10), sync: syncEveryCommit, size: fi.Size()}, nil
}

// truncateAndSync shortens a file to size bytes and makes the new
// length durable.
func truncateAndSync(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames, creations and deletions inside
// it are durable. POSIX allows directory updates to be reordered past
// file-data fsyncs; without this a freshly rotated segment full of
// acknowledged commits could vanish on power loss, or a compaction's
// segment deletes could persist while its snapshot rename does not.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// FrameHeaderSize is the byte length of a WAL frame header.
const FrameHeaderSize = 8

// putFrameHeader renders the length+CRC header of one frame. The single
// source of the frame layout: the writer, the reader's expectations,
// FrameSize and the test corpus all derive from it.
func putFrameHeader(hdr *[FrameHeaderSize]byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
}

// FrameSize returns the total on-disk size (header + payload) of the
// frame whose header bytes are hdr — the inverse of putFrameHeader's
// length field, exported so the replication ship handler can align
// chunk boundaries to frames without re-implementing the layout.
func FrameSize(hdr []byte) int64 {
	return FrameHeaderSize + int64(binary.LittleEndian.Uint32(hdr[0:4]))
}

// append frames one record into the write buffer. Ops records (every
// commit) encode through a pooled scratch buffer — zero steady-state
// allocation; CreateTable records (rare) carry their Schema as JSON.
// Nothing is durable until commit is called, letting the group committer
// amortise a single flush+fsync over many records.
func (w *walWriter) append(rec walRecord) error {
	if rec.CreateTable != nil {
		payload, err := json.Marshal(schemaRecord{CreateTable: rec.CreateTable})
		if err != nil {
			return fmt.Errorf("relstore: marshal wal record: %w", err)
		}
		return w.appendPayload(payload)
	}
	bufp := getFrameBuf()
	payload, err := appendBinRecord(*bufp, rec)
	if err != nil {
		putFrameBuf(bufp)
		return fmt.Errorf("relstore: encode wal record: %w", err)
	}
	*bufp = payload
	err = w.appendPayload(payload)
	putFrameBuf(bufp)
	return err
}

// appendPayload frames one encoded payload into the write buffer.
func (w *walWriter) appendPayload(payload []byte) error {
	var hdr [8]byte
	putFrameHeader(&hdr, payload)
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.buf.Write(payload); err != nil {
		return err
	}
	w.size += int64(8 + len(payload))
	return nil
}

// appendRaw copies pre-framed bytes into the write buffer. The
// follower-apply path uses it to mirror shipped leader frames verbatim
// (they are CRC-validated before this is called), keeping local byte
// offsets identical to the leader's.
func (w *walWriter) appendRaw(b []byte) error {
	if _, err := w.buf.Write(b); err != nil {
		return err
	}
	w.size += int64(len(b))
	return nil
}

// commit flushes buffered records to the file and, in sync mode, fsyncs
// so every appended record is durable when it returns.
func (w *walWriter) commit() error {
	if err := w.buf.Flush(); err != nil {
		return err
	}
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

// Close flushes, fsyncs and closes the segment. The file is closed even
// when the flush or sync fails (crashed failpoint files, full disks), so
// descriptors never leak across the crash-test matrix.
func (w *walWriter) Close() error {
	err := w.buf.Flush()
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// errTornRecord marks a truncated or checksum-corrupt record — the
// expected artefact of a crash mid-append, tolerable at the tail of the
// final segment only.
var errTornRecord = errors.New("relstore: torn wal record")

// readWAL parses records from r until EOF or the first damaged frame.
// It returns the decoded records, the byte length of the valid prefix
// they were read from, and the error that stopped the scan: nil on a
// clean EOF at a frame boundary, errTornRecord (wrapped) on a short or
// checksum-mismatched frame, or a decode error for a frame whose
// checksum holds but whose payload is not a valid record (which cannot
// be a torn-write artefact and is never silently dropped). No record
// past the damage is ever returned.
func readWAL(r io.Reader) ([]walRecord, int64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var out []walRecord
	var n int64
	var scratch bytes.Buffer
	for {
		rec, size, err := readOneRecord(br, &scratch)
		if err == io.EOF {
			return out, n, nil
		}
		if err != nil {
			return out, n, err
		}
		out = append(out, rec)
		n += size
	}
}

// readOneRecord reads one frame from br, staging its payload in scratch.
// scratch grows only as payload bytes arrive, so a header that lies about
// its length (a flipped bit in a torn tail or a shipped chunk) costs what
// the input actually holds, not what the header claims.
func readOneRecord(br *bufio.Reader, scratch *bytes.Buffer) (walRecord, int64, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return walRecord{}, 0, io.EOF
		}
		return walRecord{}, 0, fmt.Errorf("%w: short header", errTornRecord)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > 1<<30 {
		return walRecord{}, 0, fmt.Errorf("%w: absurd frame length %d", errTornRecord, length)
	}
	scratch.Reset()
	if _, err := io.CopyN(scratch, br, int64(length)); err != nil {
		return walRecord{}, 0, fmt.Errorf("%w: short payload", errTornRecord)
	}
	payload := scratch.Bytes()
	if crc32.ChecksumIEEE(payload) != sum {
		return walRecord{}, 0, fmt.Errorf("%w: checksum mismatch", errTornRecord)
	}
	// The checksum held, so the payload is exactly what was written: a
	// payload that does not decode is corruption a torn write cannot
	// produce, and is never silently dropped.
	rec, err := decodeRecord(payload)
	if err != nil {
		return walRecord{}, 0, err
	}
	return rec, int64(FrameHeaderSize + len(payload)), nil
}

// applyRecord installs one record into the in-memory state: a replayed
// one at Open (the DB is still unpublished and single-threaded), a
// shipped one on a live follower, or a leader's own CreateTable. Past
// Open the caller holds db.mu exclusively, so readers observe each
// replicated transaction atomically, exactly as they would on the leader.
func (db *DB) applyRecord(rec walRecord) error {
	if rec.CreateTable != nil {
		s := *rec.CreateTable
		if t, ok := db.tables[s.Name]; ok {
			// A CreateTable record for an existing table is a logged
			// schema upgrade: rows written before this point used the
			// old schema, rows after it may use the new columns. The
			// log is trusted — compatibility was checked when the
			// record was written.
			if !schemaEqual(t.schema, s) {
				t.upgrade(s)
			}
		} else {
			db.tables[s.Name] = newTable(s)
		}
		return nil
	}
	for _, op := range rec.Ops {
		t := db.tables[op.Table]
		if t == nil {
			return fmt.Errorf("relstore: wal references unknown table %q", op.Table)
		}
		if err := t.apply(op); err != nil {
			return err
		}
	}
	return nil
}

// recoverSegments replays every live segment in order and returns the
// highest segment number seen (snapSeq when none). Segments at or below
// snapSeq are stale leftovers of a compaction cycle that crashed between
// the snapshot rename and the deletes; they are removed. The live set
// must be contiguous starting at snapSeq+1 — a gap means a segment the
// snapshot does not cover is missing, which is unrecoverable data loss,
// so the store refuses to open. A torn tail is tolerated only in the
// final segment and is truncated away so it can never shadow later
// writes once new segments stack above it. Nothing on disk is touched
// until every live segment has been read, so a refused open leaves the
// directory as it found it.
func (db *DB) recoverSegments(snapSeq int64) (int64, error) {
	seqs, err := listSegments(db.dir)
	if err != nil {
		return 0, err
	}
	stale := sort.Search(len(seqs), func(i int) bool { return seqs[i] > snapSeq })
	live := seqs[stale:]
	if len(live) > 0 && live[0] != snapSeq+1 {
		return 0, fmt.Errorf("relstore: wal segment %d missing (snapshot covers through %d, oldest on disk is %d)",
			snapSeq+1, snapSeq, live[0])
	}
	maxSeq := snapSeq
	for i, seq := range live {
		if i > 0 && seq != live[i-1]+1 {
			return 0, fmt.Errorf("relstore: wal segment %d missing (gap before segment %d)", live[i-1]+1, seq)
		}
		path := filepath.Join(db.dir, segmentName(seq))
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		recs, n, rerr := readWAL(f)
		f.Close()
		final := i == len(live)-1
		switch {
		case rerr == nil:
			// Clean segment.
		case errors.Is(rerr, errTornRecord) && final:
			// The expected crash artefact: the last commit never
			// acknowledged. Repair by truncating to the valid prefix so
			// the segment is a well-formed sealed segment from now on —
			// and fsync the repair: if it were lost to power failure
			// after newer segments stack above this one, the returning
			// garbage would read as mid-sequence corruption.
			if err := truncateAndSync(path, n); err != nil {
				return 0, err
			}
		case errors.Is(rerr, errTornRecord):
			return 0, fmt.Errorf("relstore: mid-sequence corruption in wal segment %d: %w", seq, rerr)
		default:
			return 0, fmt.Errorf("relstore: wal segment %d: %w", seq, rerr)
		}
		for _, rec := range recs {
			if err := db.applyRecord(rec); err != nil {
				return 0, err
			}
		}
		maxSeq = seq
	}
	for _, seq := range seqs[:stale] {
		// Covered by the snapshot; delete is best-effort (a survivor is
		// ignored again on the next open).
		os.Remove(filepath.Join(db.dir, segmentName(seq)))
	}
	return maxSeq, nil
}

// tableClone is a shallow, immutable copy of one table's state: the rows
// map is copied (O(rows) pointer copies) but the Row values are shared —
// safe because committed rows are never mutated in place (Put stores a
// fresh clone; applyPut replaces the map entry).
type tableClone struct {
	schema Schema
	seq    int64
	rows   map[string]Row
}

// cloneStateLocked captures a snapshot of the in-memory tables. The caller
// holds db.mu (shared is enough), so no commit is ever seen half-applied.
// Tables are cloned in name order, which is the order the snapshot lists
// them in.
func (db *DB) cloneStateLocked() []tableClone {
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	clones := make([]tableClone, 0, len(names))
	for _, name := range names {
		t := db.tables[name]
		rows := make(map[string]Row, len(t.rows))
		for id, row := range t.rows {
			rows[id] = row
		}
		clones = append(clones, tableClone{schema: t.schema, seq: t.seq, rows: rows})
	}
	return clones
}

// snapshotMagic opens every snapshot file.
const snapshotMagic = "CHRSNAP2"

// writeSnapshot streams clones to w in the snapshot layout:
//
//	8-byte magic "CHRSNAP2"
//	uvarint walSeq
//	uvarint table count
//	per table:
//	  uvarint schema-JSON length, schema JSON (rare, self-describing)
//	  uvarint sequence value
//	  uvarint row count
//	  per row: uvarint length, row (rowcodec; the key lives in its
//	  key column, so rows need no separate id field)
//
// Memory stays O(one encoded row): each row is encoded into a reused
// buffer and copied straight into the buffered writer. The same encoder
// backs both compaction and snapshot shipping to followers. Pure CPU
// work on immutable data; called without any lock held.
func writeSnapshot(w io.Writer, clones []tableClone, walSeq int64) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	// bufio latches the first write error and re-surfaces it on every
	// later call, so error checking can ride on the encode steps and
	// the final Flush.
	bw.WriteString(snapshotMagic)
	// One shared scratch for all varints: a per-call stack array would
	// escape through bufio's io.Writer parameter and allocate per row.
	scratch := make([]byte, binary.MaxVarintLen64)
	writeUvarint(bw, scratch, uint64(walSeq))
	writeUvarint(bw, scratch, uint64(len(clones)))
	var rowBuf []byte
	for i := range clones {
		c := &clones[i]
		schema, err := json.Marshal(c.schema)
		if err != nil {
			return fmt.Errorf("relstore: marshal snapshot schema: %w", err)
		}
		writeUvarint(bw, scratch, uint64(len(schema)))
		bw.Write(schema)
		writeUvarint(bw, scratch, uint64(c.seq))
		writeUvarint(bw, scratch, uint64(len(c.rows)))
		codec := newRowCodec(c.schema)
		for _, row := range c.rows {
			rowBuf, err = codec.appendRow(rowBuf[:0], row)
			if err != nil {
				return fmt.Errorf("relstore: encode snapshot row: %w", err)
			}
			writeUvarint(bw, scratch, uint64(len(rowBuf)))
			bw.Write(rowBuf)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("relstore: write snapshot: %w", err)
	}
	return nil
}

// writeUvarint emits one unsigned varint into the buffered writer.
// scratch must be at least binary.MaxVarintLen64 bytes.
func writeUvarint(bw *bufio.Writer, scratch []byte, v uint64) {
	bw.Write(scratch[:binary.PutUvarint(scratch, v)])
}

// writeSnapshotTmp streams the snapshot for clones into path and fsyncs
// it. The caller installs it with commitSnapshotTmp once every commit
// the clones contain is durably logged.
func writeSnapshotTmp(path string, clones []tableClone, walSeq int64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeSnapshot(f, clones, walSeq); err != nil {
		f.Close()
		return err
	}
	// The snapshot must be durable before any segment it covers is
	// deleted, so the rename (the compaction commit point) is preceded
	// by an fsync.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commitSnapshotTmp atomically installs a fully written, fsynced temp
// snapshot as the store's snapshot.
func (db *DB) commitSnapshotTmp(tmp string) error {
	if err := os.Rename(tmp, db.snapshotPath()); err != nil {
		return err
	}
	// The rename must be durable before the caller deletes the segments
	// this snapshot covers; otherwise power loss could persist the
	// deletes but not the rename, leaving an old snapshot pointing at
	// missing segments.
	return syncDir(db.dir)
}

// readSnapshotFile parses the snapshot at path (the layout writeSnapshot
// documents) into a fresh table set and returns it with the highest WAL
// segment it covers. A missing file yields an empty table set and seq 0
// (a store that has never compacted). Tables stream row by row through
// a reused buffer, so peak memory is the restored tables plus O(one
// encoded row); the buffer grows only as row bytes arrive, because the
// file may come from a leader (FollowerReinit) and a length that lies
// must cost what the input holds, not what it claims. A file that opens
// with '{' is a JSON snapshot: ErrLegacyFormat.
func readSnapshotFile(path string) (map[string]*table, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return make(map[string]*table), 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var magic [len(snapshotMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != snapshotMagic {
		if magic[0] == '{' {
			return nil, 0, fmt.Errorf("%w (the snapshot is JSON)", ErrLegacyFormat)
		}
		return nil, 0, fmt.Errorf("relstore: snapshot: bad magic")
	}
	walSeq, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, fmt.Errorf("relstore: snapshot: read walSeq: %w", err)
	}
	nTables, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, fmt.Errorf("relstore: snapshot: read table count: %w", err)
	}
	tables := make(map[string]*table)
	var rowBuf bytes.Buffer
	for i := uint64(0); i < nTables; i++ {
		schemaLen, err := binary.ReadUvarint(br)
		if err != nil || schemaLen > 1<<20 {
			return nil, 0, fmt.Errorf("relstore: snapshot: bad schema length")
		}
		schemaJSON := make([]byte, schemaLen)
		if _, err := io.ReadFull(br, schemaJSON); err != nil {
			return nil, 0, fmt.Errorf("relstore: snapshot: read schema: %w", err)
		}
		var s Schema
		if err := json.Unmarshal(schemaJSON, &s); err != nil {
			return nil, 0, fmt.Errorf("relstore: snapshot: decode schema: %w", err)
		}
		t := newTable(s)
		seq, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("relstore: snapshot: read table seq: %w", err)
		}
		t.seq = int64(seq)
		nRows, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("relstore: snapshot: read row count: %w", err)
		}
		for j := uint64(0); j < nRows; j++ {
			rowLen, err := binary.ReadUvarint(br)
			if err != nil || rowLen > 1<<30 {
				return nil, 0, fmt.Errorf("relstore: snapshot: bad row length")
			}
			rowBuf.Reset()
			if _, err := io.CopyN(&rowBuf, br, int64(rowLen)); err != nil {
				return nil, 0, fmt.Errorf("relstore: snapshot: read row: %w", err)
			}
			row, err := t.codec.decodeRow(rowBuf.Bytes())
			if err != nil {
				return nil, 0, fmt.Errorf("relstore: snapshot: %w", err)
			}
			id, ok := row[s.Key].(string)
			if !ok || id == "" {
				return nil, 0, fmt.Errorf("relstore: snapshot: table %q row without string key", s.Name)
			}
			t.applyPut(id, row)
		}
		tables[s.Name] = t
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("relstore: snapshot: trailing bytes after last table")
	}
	return tables, int64(walSeq), nil
}

// loadSnapshot restores the snapshot file if present and returns the
// highest WAL segment it covers (0 when there is none).
func (db *DB) loadSnapshot() (int64, error) {
	if db.dir == "" {
		return 0, nil
	}
	tables, seq, err := readSnapshotFile(db.snapshotPath())
	if err != nil {
		return 0, err
	}
	db.tables = tables
	return seq, nil
}
