// Package store is the session service's durability layer: a -data-dir
// backed store where every base image persists as a replay recipe and
// every live session appends to a write-ahead command journal, so a
// piscaled process can be SIGKILLed at any instant and the next one
// rebuilds the same images and re-enacts every session to its last
// durable offset.
//
// Nothing here serialises simulated state. The kernel is deterministic
// and every restore is verified (scenario.Stamp.Verify), so the durable
// form of a simulated machine is its *recipe*: the wire spec
// (cliconfig.SpecRequest — the same vocabulary checkpoint files and
// POST bodies speak), the injection history in wire form, and the
// timeline offset. Recovery is therefore a verified replay, not a
// best-effort reload: every image and journal record keeps the stamp
// (offset, kernel state digest, trace length and digest) of the instant
// it became durable, and the session layer refuses any rebuilt run
// whose stamp does not reproduce the persisted one (quarantining the
// record for post-mortem instead of serving corrupt state).
//
// Layout under the data dir:
//
//	images/img-<name>.json    one replay recipe per base image
//	journals/<id>.journal     append-only JSON-lines WAL per session
//	quarantine/               journals (+ .reason files) that failed
//	                          recovery verification
//
// Journal appends are fsynced record by record — a record is either
// fully durable or (torn tail after a crash) ignored on read — and
// image files are written via temp-file + rename, so a crash never
// leaves a half-written recipe behind.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/scenario"
)

// FaultRecord is one journaled injection: the wire-form fault and the
// timeline offset the run was paused at when it was injected —
// scenario.Injection, encoded.
type FaultRecord struct {
	At    int64                  `json:"at_ns"`
	Fault cliconfig.FaultRequest `json:"fault"`
}

// Recipe is the durable form of a simulated machine: resolve the spec,
// re-enact the injections at their logged offsets, land at the offset.
type Recipe struct {
	Spec       cliconfig.SpecRequest `json:"spec"`
	At         int64                 `json:"at_ns"`
	Injections []FaultRecord         `json:"injections,omitempty"`
}

// Rebuild cold-builds the recipe back into a paused run. The caller
// must verify the rebuilt run's Stamp against the one persisted next to
// the recipe before trusting it.
func (rc Recipe) Rebuild() (*scenario.Run, error) {
	spec, err := rc.Spec.Resolve()
	if err != nil {
		return nil, fmt.Errorf("store: recipe: %w", err)
	}
	injections, err := rc.DecodeInjections()
	if err != nil {
		return nil, err
	}
	return scenario.ReplayRecipe(spec, injections, time.Duration(rc.At))
}

// DecodeInjections decodes the wire-form injection history.
func (rc Recipe) DecodeInjections() ([]scenario.Injection, error) {
	out := make([]scenario.Injection, 0, len(rc.Injections))
	for _, fr := range rc.Injections {
		f, err := fr.Fault.Fault()
		if err != nil {
			return nil, fmt.Errorf("store: recipe injection at %v: %w", time.Duration(fr.At), err)
		}
		out = append(out, scenario.Injection{At: time.Duration(fr.At), Fault: f})
	}
	return out, nil
}

// Key canonicalises the recipe for rebuild dedup: two images saved from
// identical recipes rebuild once and share the result.
func (rc Recipe) Key() string {
	data, _ := json.Marshal(rc)
	return string(data)
}

// ImageRecord is one persisted base image: the recipe plus the
// fingerprints the rebuilt machine must reproduce.
type ImageRecord struct {
	Name string `json:"name"`
	Recipe
	Fingerprint  string `json:"fingerprint"`
	KernelDigest string `json:"kernel_digest"`
	TraceLen     int    `json:"trace_len"`
	TraceDigest  string `json:"trace_digest"`
}

// Stamp reads back the stamp the rebuilt image must reproduce: the
// recipe's offset, the kernel digest and the trace fingerprint.
func (rec ImageRecord) Stamp() scenario.Stamp {
	return scenario.DigestStamp(time.Duration(rec.At), rec.KernelDigest, rec.TraceLen, rec.TraceDigest)
}

// Record is one write-ahead journal entry. Every record carries the
// offset it was journaled at and — for records written at a paused
// kernel instant — the kernel state digest and trace fingerprint at
// that instant; recovery replays the whole journal and verifies the
// rebuilt kernel against the last stamped record.
type Record struct {
	Op string `json:"op"` // create, advance, inject, checkpoint, fork, close
	At int64  `json:"at_ns"`

	KernelDigest string `json:"kernel_digest,omitempty"`
	TraceLen     int    `json:"trace_len,omitempty"`
	TraceDigest  string `json:"trace_digest,omitempty"`

	// create: fork the named base image, or cold-rebuild the recipe.
	BaseImage string  `json:"base_image,omitempty"`
	Recipe    *Recipe `json:"recipe,omitempty"`
	// inject: the wire-form fault, re-enacted at At on recovery.
	Fault *cliconfig.FaultRequest `json:"fault,omitempty"`
	// checkpoint: the base-image name the capture registered as, if any.
	Image string `json:"image,omitempty"`
	// fork: the child session's id (the child journals independently).
	Child string `json:"child,omitempty"`
}

// Stamped returns the record stamped with a run's stamp: its offset,
// kernel digest and trace fingerprint.
func (rec Record) Stamped(s scenario.Stamp) Record {
	rec.At = int64(s.At)
	rec.KernelDigest = s.Kernel.Digest
	rec.TraceLen = s.TraceLen
	rec.TraceDigest = s.TraceDigest
	return rec
}

// Stamp reads back the record's stamp, the state a replay of the
// journal up to this record must reproduce.
func (rec Record) Stamp() scenario.Stamp {
	return scenario.DigestStamp(time.Duration(rec.At), rec.KernelDigest, rec.TraceLen, rec.TraceDigest)
}

// Store is a data directory holding image recipes and session journals.
type Store struct {
	dir string
	mu  sync.Mutex
}

// Open creates (or reopens) the data directory and its layout.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"", "images", "journals", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the data directory path.
func (st *Store) Dir() string { return st.dir }

// imagePath maps an image name to its file. PathEscape keeps arbitrary
// names filesystem-safe ('/' and friends escape to %XX), and the img-
// prefix keeps even hostile names ("..", "") from resolving anywhere
// outside images/.
func (st *Store) imagePath(name string) string {
	return filepath.Join(st.dir, "images", "img-"+url.PathEscape(name)+".json")
}

// SaveImage persists an image recipe atomically (temp file + rename).
func (st *Store) SaveImage(rec ImageRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("store: image %q: %w", rec.Name, err)
	}
	return atomicWrite(st.imagePath(rec.Name), append(data, '\n'))
}

// RemoveImage drops a persisted image recipe (used to roll back a
// registration whose in-memory half failed). Missing files are fine.
func (st *Store) RemoveImage(name string) error {
	err := os.Remove(st.imagePath(name))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Images loads every persisted image recipe, sorted by name.
func (st *Store) Images() ([]ImageRecord, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "images"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	out := make([]ImageRecord, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.dir, "images", e.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		var rec ImageRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("store: image file %s: %w", e.Name(), err)
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// QuarantineImage moves a persisted image recipe aside with a reason
// file, so a recipe that fails rebuild verification is kept for
// post-mortem instead of being retried (and refused) on every restart.
func (st *Store) QuarantineImage(name, reason string) error {
	base := "img-" + url.PathEscape(name) + ".json"
	return st.quarantineFile(st.imagePath(name), base, reason)
}

func (st *Store) journalPath(id string) string {
	return filepath.Join(st.dir, "journals", id+".journal")
}

// Journal is one session's append-only write-ahead log. Appends are
// serialized and fsynced: when Append returns, the record survives
// SIGKILL.
type Journal struct {
	id string
	mu sync.Mutex
	f  *os.File
	// records counts appends over this handle's lifetime (telemetry).
	records int
}

// CreateJournal starts a fresh journal for a new session. An existing
// journal for the id is truncated (ids are never reused while their
// journal is live; a leftover file means a clean close raced a crash).
func (st *Store) CreateJournal(id string) (*Journal, error) {
	return st.openJournal(id, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
}

// OpenJournal reopens an existing journal for appending — the recovery
// path, where the recovered session keeps extending its own history.
func (st *Store) OpenJournal(id string) (*Journal, error) {
	return st.openJournal(id, os.O_CREATE|os.O_APPEND|os.O_WRONLY)
}

func (st *Store) openJournal(id string, flags int) (*Journal, error) {
	f, err := os.OpenFile(st.journalPath(id), flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", id, err)
	}
	return &Journal{id: id, f: f}, nil
}

// Append writes one record and fsyncs it.
func (j *Journal) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: journal %s: %w", j.id, err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("store: journal %s: %w", j.id, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: journal %s: fsync: %w", j.id, err)
	}
	j.records++
	return nil
}

// Records returns how many records this handle has appended.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Close releases the file handle (the records are already durable).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// JournalIDs lists the session ids with a journal on disk, sorted.
func (st *Store) JournalIDs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "journals"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".journal") {
			continue
		}
		out = append(out, strings.TrimSuffix(e.Name(), ".journal"))
	}
	sort.Strings(out)
	return out, nil
}

// ReadJournal loads a session's journal. A torn final line — the one
// write a SIGKILL can interrupt, since every complete record was
// fsynced before the next began — is dropped silently; a malformed
// record anywhere earlier is corruption and returns an error (the
// caller quarantines).
func (st *Store) ReadJournal(id string) ([]Record, error) {
	f, err := os.Open(st.journalPath(id))
	if err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", id, err)
	}
	defer f.Close()
	return decodeJournal(f, id)
}

// decodeJournal parses journal lines under ReadJournal's torn-tail rule.
func decodeJournal(r io.Reader, id string) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	pendingErr := error(nil)
	line := 0
	for sc.Scan() {
		line++
		if pendingErr != nil {
			// The bad line had complete records after it: real corruption.
			return out, pendingErr
		}
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			pendingErr = fmt.Errorf("store: journal %s: record %d: %w", id, line, err)
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("store: journal %s: %w", id, err)
	}
	return out, nil
}

// RemoveJournal deletes a journal after a clean close.
func (st *Store) RemoveJournal(id string) error {
	err := os.Remove(st.journalPath(id))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// QuarantineJournal moves a journal that failed recovery verification
// into quarantine/ with a .reason file, refusing to serve the session
// while keeping the full history for post-mortem.
func (st *Store) QuarantineJournal(id, reason string) error {
	return st.quarantineFile(st.journalPath(id), id+".journal", reason)
}

// Quarantined maps each quarantined journal's session id to its
// recorded reason.
func (st *Store) Quarantined() (map[string]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "quarantine"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".journal") {
			continue
		}
		id := strings.TrimSuffix(e.Name(), ".journal")
		reason, _ := os.ReadFile(filepath.Join(st.dir, "quarantine", e.Name()+".reason"))
		out[id] = strings.TrimSpace(string(reason))
	}
	return out, nil
}

func (st *Store) quarantineFile(src, base, reason string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	dst := filepath.Join(st.dir, "quarantine", base)
	if err := os.Rename(src, dst); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: quarantine %s: %w", base, err)
	}
	return atomicWrite(dst+".reason", []byte(reason+"\n"))
}

// atomicWrite lands data at path via temp file + fsync + rename, so a
// crash leaves either the old file or the new one, never a torn write.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
