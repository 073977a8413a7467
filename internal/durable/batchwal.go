package durable

import (
	"fmt"
	"io"
	"os"
)

// BatchWAL file format: an 8-byte magic header followed by variable-length
// records. Each record is [uint32 length][payload][crc32 of length+payload],
// little-endian. Compared to the fixed-record WAL, the payload is opaque —
// predictd logs one encoded ingest batch per record — while recovery keeps
// the same contract: replay trusts exactly the prefix of records whose
// checksums verify, and the torn or corrupt tail is truncated away.
var batchWALMagic = [8]byte{'L', 'A', 'R', 'P', 'B', 'W', 'L', '1'}

// maxBatchRecord caps a single record's payload. A length field larger than
// this is treated as corruption rather than an allocation request.
const maxBatchRecord = 16 << 20

// BatchWAL is an append-only log of opaque batch payloads. Appends are
// buffered by the OS; Sync makes everything appended so far durable. Not
// safe for concurrent use — callers serialize appends (predictd holds its
// commit lock across Append).
type BatchWAL struct {
	f    *os.File
	path string
	// ends[i] is the file offset just past record i, so a reader that finds
	// record i undecodable can truncate back to the last decodable one.
	ends []int64
	// scratch holds the framed record across Append calls so a steady-state
	// appender reaches one Write syscall with no per-record allocation.
	scratch []byte
	// broken is set when a failed append could not be cut back off the
	// file; every later Append returns it, so no record lands after the
	// damage where recovery would never reach it.
	broken error
}

// OpenBatchWAL opens (or creates) a batch write-ahead log and returns its
// intact record payloads in append order. A torn or corrupt tail is truncated
// away — the returned records are exactly what recovery may trust — and the
// log is positioned for appending. truncated reports how many bytes of bad
// tail were discarded. A file that does not start with the batch-WAL magic
// fails with ErrWALFormat; callers quarantine it and start fresh.
func OpenBatchWAL(path string) (w *BatchWAL, recs [][]byte, truncated int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("durable: open batch WAL: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("durable: stat batch WAL: %w", err)
	}
	if info.Size() == 0 {
		if _, err = f.Write(batchWALMagic[:]); err != nil {
			return nil, nil, 0, fmt.Errorf("durable: write batch WAL header: %w", err)
		}
		if err = f.Sync(); err != nil {
			return nil, nil, 0, fmt.Errorf("durable: sync batch WAL header: %w", err)
		}
		return &BatchWAL{f: f, path: path}, nil, 0, nil
	}

	var magic [8]byte
	if _, rerr := io.ReadFull(f, magic[:]); rerr != nil || magic != batchWALMagic {
		err = fmt.Errorf("durable: %s: %w", path, ErrWALFormat)
		return nil, nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("durable: read batch WAL: %w", err)
	}
	w = &BatchWAL{f: f, path: path}
	good := 0
	for {
		payload, rest, ok := SplitRecord(data[good:], maxBatchRecord)
		if !ok {
			break
		}
		recs = append(recs, append([]byte(nil), payload...))
		good = len(data) - len(rest)
		w.ends = append(w.ends, int64(len(batchWALMagic))+int64(good))
	}
	if bad := int64(len(data) - good); bad > 0 {
		truncated = bad
		end := int64(len(batchWALMagic)) + int64(good)
		if err = f.Truncate(end); err != nil {
			return nil, nil, 0, fmt.Errorf("durable: truncate torn batch WAL tail: %w", err)
		}
		if err = f.Sync(); err != nil {
			return nil, nil, 0, fmt.Errorf("durable: sync truncated batch WAL: %w", err)
		}
	}
	if _, err = f.Seek(0, io.SeekEnd); err != nil {
		return nil, nil, 0, fmt.Errorf("durable: seek batch WAL end: %w", err)
	}
	return w, recs, truncated, nil
}

// Path returns the log's file path.
func (w *BatchWAL) Path() string { return w.path }

// Records reports how many intact records the log currently holds.
func (w *BatchWAL) Records() int { return len(w.ends) }

// Append writes one record. The record is durable only after the next Sync.
func (w *BatchWAL) Append(payload []byte) error {
	if w.broken != nil {
		return w.broken
	}
	if len(payload) > maxBatchRecord {
		return fmt.Errorf("durable: batch WAL record %d bytes exceeds %d", len(payload), maxBatchRecord)
	}
	w.scratch = AppendRecord(w.scratch[:0], payload)
	end := w.end(len(w.ends))
	if _, err := w.f.Write(w.scratch); err != nil {
		// A short write (ENOSPC, EFBIG) leaves a torn record. Recovery
		// stops at it, so a later record appended behind it — and fsynced
		// and acked — would be truncated away on restart. Cut the torn
		// bytes off before anything else is written.
		terr := w.f.Truncate(end)
		if terr == nil {
			_, terr = w.f.Seek(end, io.SeekStart)
		}
		if terr != nil {
			w.broken = fmt.Errorf("durable: batch WAL torn by failed append (%v): %w", err, terr)
			return w.broken
		}
		return fmt.Errorf("durable: append batch WAL record: %w", err)
	}
	w.ends = append(w.ends, end+int64(len(w.scratch)))
	return nil
}

// end returns the file offset just past the first n records.
func (w *BatchWAL) end(n int) int64 {
	if n == 0 {
		return int64(len(batchWALMagic))
	}
	return w.ends[n-1]
}

// Sync fsyncs the log: every record appended so far survives a crash.
func (w *BatchWAL) Sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync batch WAL: %w", err)
	}
	return nil
}

// TruncateRecords discards every record after the first keep ones — the
// recovery path for a record whose checksum verifies but whose payload no
// longer decodes (a format change or deeper corruption): truncate back to
// the last usable record and carry on, exactly like a torn tail.
func (w *BatchWAL) TruncateRecords(keep int) error {
	if keep < 0 || keep > len(w.ends) {
		return fmt.Errorf("durable: truncate to %d of %d records", keep, len(w.ends))
	}
	end := w.end(keep)
	if err := w.f.Truncate(end); err != nil {
		return fmt.Errorf("durable: truncate batch WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("durable: seek batch WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync truncated batch WAL: %w", err)
	}
	w.ends = w.ends[:keep]
	return nil
}

// Reset discards all records, keeping the header — called after a snapshot
// has captured everything the log was protecting.
func (w *BatchWAL) Reset() error {
	if err := w.TruncateRecords(0); err != nil {
		return err
	}
	return nil
}

// Close syncs and closes the log.
func (w *BatchWAL) Close() error {
	syncErr := w.f.Sync()
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: close batch WAL: %w", err)
	}
	if syncErr != nil {
		return fmt.Errorf("durable: sync batch WAL on close: %w", syncErr)
	}
	return nil
}
