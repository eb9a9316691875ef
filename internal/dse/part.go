package dse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"scalesim/internal/batch"
	"scalesim/internal/disk"
	"scalesim/internal/obsv"
)

// PartSchema versions the shard part-file format. Bump on any change to
// the header or row encoding.
const PartSchema = "scalesim.dse.part/v1"

// partHeader is the first JSONL line of a part file: enough identity to
// refuse merging parts of different searches, plus the shard's statistics.
type partHeader struct {
	Schema      string           `json:"schema"`
	Fingerprint string           `json:"fingerprint"`
	BaseHash    string           `json:"base_hash"`
	Epsilon     float64          `json:"epsilon"`
	Shard       int              `json:"shard"`
	Shards      int              `json:"shards"`
	BandPoints  int64            `json:"band_points"`
	Search      obsv.SearchStats `json:"search"`
}

// WritePart writes one shard's refined rows as a JSONL part file
// (header line, then one Row per line), atomically (disk.Replace).
func WritePart(path string, res *Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("dse: part dir: %w", err)
	}
	hdr := partHeader{
		Schema:      PartSchema,
		Fingerprint: res.Fingerprint,
		BaseHash:    res.BaseHash,
		Epsilon:     res.Stats.Epsilon,
		Shard:       res.Stats.Shard,
		Shards:      res.Stats.Shards,
		BandPoints:  res.Stats.BandPoints,
		Search:      res.Stats,
	}
	err := disk.Replace(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		if err := enc.Encode(hdr); err != nil {
			return err
		}
		for i := range res.Rows {
			if err := enc.Encode(&res.Rows[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("dse: part: %w", err)
	}
	return nil
}

// Part is one decoded shard part file.
type Part struct {
	Header partHeader
	Rows   []Row
}

// ReadPart decodes a part file written by WritePart.
func ReadPart(path string) (*Part, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dse: part open: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	var p Part
	if err := dec.Decode(&p.Header); err != nil {
		return nil, fmt.Errorf("dse: %s: bad header: %w", path, err)
	}
	if p.Header.Schema != PartSchema {
		return nil, fmt.Errorf("dse: %s: schema %q, want %q", path, p.Header.Schema, PartSchema)
	}
	for {
		var r Row
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("dse: %s: bad row: %w", path, err)
		}
		p.Rows = append(p.Rows, r)
	}
	return &p, nil
}

// Merge folds shard part files into one Result equivalent to an unsharded
// run: fingerprints must agree, duplicate indices must carry identical
// hashes, and every band index [0, BandPoints) must be covered exactly.
// Rows come out ascending by Index, so the CSV written from a merged
// result is byte-identical to the unsharded run's, and its manifest's
// cycle account equals the unsharded run's.
func Merge(parts []*Part) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dse: merge: no parts")
	}
	ref := parts[0].Header
	res := &Result{
		Fingerprint: ref.Fingerprint,
		BaseHash:    ref.BaseHash,
	}
	byIndex := make(map[int]Row)
	for _, p := range parts {
		if p.Header.Fingerprint != ref.Fingerprint {
			return nil, fmt.Errorf("dse: merge: fingerprint mismatch: %s vs %s",
				p.Header.Fingerprint, ref.Fingerprint)
		}
		if p.Header.BandPoints != ref.BandPoints {
			return nil, fmt.Errorf("dse: merge: band size mismatch: %d vs %d",
				p.Header.BandPoints, ref.BandPoints)
		}
		for _, r := range p.Rows {
			if prev, ok := byIndex[r.Index]; ok {
				if prev.Hash != r.Hash {
					return nil, fmt.Errorf("dse: merge: index %d has conflicting hashes %s vs %s",
						r.Index, prev.Hash, r.Hash)
				}
				continue // duplicate of an identical point: cache-equivalent, drop
			}
			byIndex[r.Index] = r
		}
	}
	if int64(len(byIndex)) != ref.BandPoints {
		missing := make([]int, 0, 4)
		for i := int64(0); i < ref.BandPoints && len(missing) < 4; i++ {
			if _, ok := byIndex[int(i)]; !ok {
				missing = append(missing, int(i))
			}
		}
		return nil, fmt.Errorf("dse: merge: %d/%d band points covered (missing e.g. %v)",
			len(byIndex), ref.BandPoints, missing)
	}
	res.Rows = make([]Row, 0, len(byIndex))
	for _, r := range byIndex {
		res.Rows = append(res.Rows, r)
	}
	sortRows(res.Rows)

	// Merged statistics: the cut numbers are shard-invariant (every shard
	// computes the same band), so adopt them from the reference and
	// recombine only the shard-local parts.
	res.Stats = ref.Search
	res.Stats.Shard, res.Stats.Shards = 0, 1
	res.Stats.RefinedPoints = int64(len(res.Rows))
	for _, p := range parts[1:] {
		if p.Header.Search.Tier1Seconds > res.Stats.Tier1Seconds {
			res.Stats.Tier1Seconds = p.Header.Search.Tier1Seconds
			res.Stats.Tier1PointsPerSec = p.Header.Search.Tier1PointsPerSec
		}
	}
	res.Stats.MaxRelErr, res.Stats.MeanRelErr = relErrBounds(res.Rows)
	measured := make([]batch.Row, len(res.Rows))
	for i, r := range res.Rows {
		measured[i] = r.Batch
	}
	m, err := batch.NewManifest(res.BaseHash, measured, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("dse: merge: %w", err)
	}
	res.Manifest = res.identify(m)
	return res, nil
}

// MergeFiles reads and merges the named part files.
func MergeFiles(paths []string) (*Result, error) {
	parts := make([]*Part, 0, len(paths))
	for _, path := range paths {
		p, err := ReadPart(path)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return Merge(parts)
}
