package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"yieldcache/internal/circuit"
	"yieldcache/internal/sram"
)

// A checkpoint is framed as a 5-byte magic, one format-version byte,
// the payload length and its CRC32-C, then the gob payload. The header
// lets a truncated, corrupt or foreign file fail with a descriptive
// error before gob ever sees it.
const (
	checkpointMagic = "YCCKP"
	persistVersion  = 2
)

var persistCRC = crc32.MakeTable(crc32.Castagnoli)

// writeFramed writes one framed payload: magic, version, uint32 length,
// uint32 CRC32-C, payload (little-endian).
func writeFramed(w io.Writer, payload []byte) error {
	var hdr [14]byte
	copy(hdr[:5], checkpointMagic)
	hdr[5] = persistVersion
	binary.LittleEndian.PutUint32(hdr[6:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[10:], crc32.Checksum(payload, persistCRC))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: writing checkpoint header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("core: writing checkpoint payload: %w", err)
	}
	return nil
}

// readFramed reads and verifies one framed payload written by
// writeFramed, with errors that name what went wrong: wrong magic,
// unsupported version, truncation, or checksum mismatch. The payload
// buffer grows with the bytes actually read, so a damaged length field
// cannot make it allocate more than the input holds.
func readFramed(r io.Reader) ([]byte, error) {
	var hdr [14]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: checkpoint file truncated in header: %w", err)
	}
	if string(hdr[:5]) != checkpointMagic {
		return nil, fmt.Errorf("core: not a checkpoint file (magic %q, want %q)", hdr[:5], checkpointMagic)
	}
	if hdr[5] != persistVersion {
		return nil, fmt.Errorf("core: checkpoint file format version %d, want %d", hdr[5], persistVersion)
	}
	n := binary.LittleEndian.Uint32(hdr[6:])
	sum := binary.LittleEndian.Uint32(hdr[10:])
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(payload) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint file truncated: %d-byte payload unreadable: %w", n, err)
	}
	if got := crc32.Checksum(payload, persistCRC); got != sum {
		return nil, fmt.Errorf("core: checkpoint file corrupt: payload checksum %08x, want %08x", got, sum)
	}
	return payload, nil
}

// BuildCheckpoint is a consistent prefix of an interrupted build:
// every chip below Done measured in the regular organisation (the
// H-YAPD one is derived from it, see DeriveHorizontal), plus the
// parameters needed to validate that a resume really continues the
// same build. Chip i is a pure function of (Seed, i) — the O(1)
// seed-jump — so Done alone locates the resume point; no sampler state
// is saved. Checkpoints written when builds also stored the H-YAPD
// prefix still decode: gob skips the stream fields this struct lacks.
type BuildCheckpoint struct {
	// Seed and N identify the build.
	Seed int64
	N    int
	Done int
	// Tech and Geom guard against resuming under a different model.
	Tech circuit.Tech
	Geom sram.Geometry
	// Regular holds the measured prefix [0, Done).
	Regular []Chip
}

// Encode serialises the checkpoint in the framed magic/version/checksum
// layout.
func (c *BuildCheckpoint) Encode(w io.Writer) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	return writeFramed(w, buf.Bytes())
}

// DecodeBuildCheckpoint reads a checkpoint written by Encode, verifying
// the header and payload checksum before decoding and the prefix's
// shape (checkShape) after it.
func DecodeBuildCheckpoint(r io.Reader) (*BuildCheckpoint, error) {
	payload, err := readFramed(r)
	if err != nil {
		return nil, err
	}
	var c BuildCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&c); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if err := c.checkShape(); err != nil {
		return nil, err
	}
	return &c, nil
}

// checkShape checks that the prefix is consistent with Done and N and
// that every chip has the way, bank and path counts of the checkpoint's
// geometry, so that a resume never copies a chip that does not fit its
// arena. Both the decoder and Build's resume run it: a checkpoint built
// in memory is checked like one read from disk.
func (c *BuildCheckpoint) checkShape() error {
	if c.Done < 0 || c.Done > c.N || len(c.Regular) != c.Done {
		return fmt.Errorf("core: checkpoint inconsistent: done=%d n=%d regular=%d",
			c.Done, c.N, len(c.Regular))
	}
	g := c.Geom
	for i := range c.Regular {
		fits := len(c.Regular[i].Meas.Ways) == g.Ways
		for _, w := range c.Regular[i].Meas.Ways {
			fits = fits && len(w.Banks) == g.BanksPerWay
			for _, b := range w.Banks {
				fits = fits && len(b.Paths) == g.PathsPerBank
			}
		}
		if !fits {
			return fmt.Errorf("core: checkpoint chip %d does not match its %d×%d×%d-path geometry",
				i, g.Ways, g.BanksPerWay, g.PathsPerBank)
		}
	}
	return nil
}
