// Package reclog is the repo's one durable record format: an
// append-only log of checksummed JSON records that survives a kill -9
// at any byte. A distribution worker's crash shard and the experiment
// checkpoint are both record logs.
//
//	header:  "BCRLOG01" | 32-byte build identity | uint64 LE plan fingerprint
//	record:  uint32 LE payload length | JSON payload | uint64 LE FNV-1a(payload)
//
// Each record goes down in one write(2), and a new log's header goes
// down with its first record, so a kill tears at most the record being
// appended. The reader keeps the checksummed prefix and reports the torn
// tail rather than failing, and a writer reopened after it cuts the
// tail before its first append.
//
// The build identity is the SHA-256 of the executable that wrote the
// log. The reader refuses a log from any other build, because a record
// is only as trustworthy as the code that computed it: an engine edit
// changes the hash even when it is not committed. The plan fingerprint
// is the writer's business: a worker shard carries its campaign plan's,
// because the unit indices in it mean something only under that plan,
// and a checkpoint, whose keys describe themselves, carries 0.
package reclog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
)

// magic opens every log; the trailing 01 is the format version.
const magic = "BCRLOG01"

const headerLen = len(magic) + sha256.Size + 8

// Record is one key/value pair a unit committed. The value is the JSON
// the checkpoint stores, opaque to this package.
type Record struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
}

// Entry is the payload of one log record: the records one unit
// committed. Unit is the plan index in a worker shard and -1 in a
// checkpoint.
type Entry struct {
	Unit    int      `json:"unit"`
	Records []Record `json:"records"`
}

// Build identifies the executable that wrote a log: the SHA-256 of its
// file.
type Build [sha256.Size]byte

func (b Build) String() string { return hex.EncodeToString(b[:]) }

var self struct {
	once sync.Once
	id   Build
	err  error
}

// Self returns the running executable's build identity. It is hashed
// once, on first use, so a process that opens no log never reads its
// own binary.
func Self() (Build, error) {
	self.once.Do(func() {
		path, err := os.Executable()
		var f *os.File
		if err == nil {
			f, err = os.Open(path)
		}
		if err == nil {
			h := sha256.New()
			_, err = io.Copy(h, f)
			f.Close()
			h.Sum(self.id[:0])
		}
		if err != nil {
			self.err = fmt.Errorf("reclog: build identity: %w", err)
		}
	})
	return self.id, self.err
}

// checksum is a record's 64-bit FNV-1a — the hash the plan fingerprints
// use.
func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// Writer appends records to a log file. It is not safe for concurrent
// use; the checkpoint serializes its appends under its own lock.
type Writer struct {
	f *os.File
	// header is the new log's header, written with the first record;
	// nil once it is on disk.
	header []byte
	size   int64
}

// Open opens the log at path for appending after its first end bytes —
// the intact prefix Read reported — and cuts whatever follows them, so
// no record is ever stranded behind torn bytes. End 0 starts a new log,
// creating or emptying the file; its header names the running build and
// plan, and goes down with the first record.
func Open(path string, plan uint64, end int64) (*Writer, error) {
	build, err := Self()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{f: f, size: end}
	if end == 0 {
		w.header = append([]byte(magic), build[:]...)
		w.header = binary.LittleEndian.AppendUint64(w.header, plan)
	}
	return w, nil
}

// Append writes e as one record — length prefix, payload and checksum,
// after the header of a new log — in one write(2), and returns the bytes
// it wrote.
func (w *Writer) Append(e Entry) (int, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 0, len(w.header)+4+len(payload)+8)
	buf = append(buf, w.header...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint64(buf, checksum(payload))
	n, err := w.f.Write(buf)
	w.size += int64(n)
	if err != nil {
		return n, err
	}
	w.header = nil
	return n, nil
}

// Size is the length of the log file after the last append.
func (w *Writer) Size() int64 { return w.size }

// Close closes the file.
func (w *Writer) Close() error { return w.f.Close() }

// Log is what Read found in a log file.
type Log struct {
	Build Build
	Plan  uint64
	// Entries are the intact records, in append order.
	Entries []Entry
	// End is the length of the intact prefix: the header and every
	// whole record. It is 0 for an empty file, which has no header yet.
	End int64
	// Torn reports bytes past End that do not form a whole record: a
	// kill mid-append, or corruption.
	Torn bool
}

// Read returns every intact record of the log at path. A torn or
// corrupt tail is the expected outcome of kill -9, not a failure: Read
// returns the valid prefix with Torn set. A cut at an exact record
// boundary is indistinguishable from a shorter log and reads clean. A
// missing file, a file that is not a log, and a log written by another
// build are errors; the last names both builds.
func Read(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := &Log{}
	if len(data) == 0 {
		return l, nil
	}
	if len(data) < headerLen || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("reclog: %s is not a record log", path)
	}
	copy(l.Build[:], data[len(magic):])
	l.Plan = binary.LittleEndian.Uint64(data[len(magic)+sha256.Size:])
	build, err := Self()
	if err != nil {
		return nil, err
	}
	if l.Build != build {
		return nil, fmt.Errorf("reclog: %s was written by build %s; this is build %s", path, l.Build, build)
	}
	l.End = int64(headerLen)
	for rest := data[headerLen:]; len(rest) > 0; {
		if len(rest) < 4 {
			l.Torn = true
			break
		}
		// A corrupt length prefix reads as a torn tail; it allocates
		// nothing, since the whole file is already in memory.
		n := int(binary.LittleEndian.Uint32(rest))
		if len(rest) < 4+n+8 {
			l.Torn = true
			break
		}
		payload := rest[4 : 4+n]
		var e Entry
		if checksum(payload) != binary.LittleEndian.Uint64(rest[4+n:]) || json.Unmarshal(payload, &e) != nil {
			l.Torn = true
			break
		}
		l.Entries = append(l.Entries, e)
		l.End += int64(4 + n + 8)
		rest = rest[4+n+8:]
	}
	return l, nil
}
