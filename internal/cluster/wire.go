package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The peer entry codec: the byte stream of a POST /v1/peer/fetch
// answer. A snapshot is a magic+version header followed by zero or more
// records,
//
//	[32-byte key][uvarint body length][body bytes]
//
// terminated by EOF. The key travels as its exact 32 digest bytes and
// the body length-prefixed, so no record can bleed into its neighbour's
// key — cross-peer key aliasing is structurally impossible, and
// FuzzPeerWire pins it. Decoding is bounded (entry count, per-body
// size), so a misbehaving peer cannot balloon the puller's memory; any
// malformed stream is an error, never a panic.

// snapshotMagic opens every snapshot stream. The trailing byte is the
// codec version: bump it whenever a field is added or reordered, so a
// mixed-version fleet fails loudly at the first sync round instead of
// importing garbage.
var snapshotMagic = []byte{'P', 'S', 'N', 'P', 1}

// membersMagic opens a membership message (GET /v1/peer/members and the
// POST /v1/peer/join exchange):
//
//	[magic][uvarint epoch][uvarint count] count x [uvarint len][URL bytes]
//
// digestMagic opens a cache-key digest (GET /v1/peer/digest and the
// POST /v1/peer/fetch want-list): [magic][uvarint count] count x 32-byte
// keys. Both share the snapshot codec's discipline: versioned magic,
// bounded decode, malformed input is an error, never a panic.
var (
	membersMagic = []byte{'P', 'M', 'B', 'R', 1}
	digestMagic  = []byte{'P', 'D', 'I', 'G', 1}
)

const (
	// MaxMembers bounds how many peers one membership message may carry
	// — far above any fleet this system targets, small enough that a
	// hostile message cannot balloon memory.
	MaxMembers = 1024
	// MaxDigestKeys bounds the keys one digest lists and the entries one
	// fetch moves, on every node alike: a served digest never lists more
	// than a puller accepts, whatever the fleet's cache sizes.
	MaxDigestKeys = 1024
	// maxPeerURLLen bounds one member URL on the wire.
	maxPeerURLLen = 512
)

// Entry is one cache entry on the wire: a canonical key and the rendered
// response bytes stored under it.
type Entry struct {
	Key  Key
	Body []byte
}

// Decode bound errors, distinguishable from plain corruption so callers
// can log "peer over budget" differently from "peer sent garbage".
var (
	ErrBadMagic    = errors.New("cluster: peer message has wrong magic or version")
	ErrTooMany     = errors.New("cluster: peer message exceeds its count bound")
	ErrBodyTooLong = errors.New("cluster: snapshot entry exceeds the body bound")
	ErrURLTooLong  = errors.New("cluster: member URL exceeds the length bound")
)

// EncodeSnapshot writes entries as one snapshot stream. The writer is
// buffered internally; the returned error is the first write failure.
func EncodeSnapshot(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	for _, e := range entries {
		if _, err := bw.Write(e.Key[:]); err != nil {
			return err
		}
		n := binary.PutUvarint(lenBuf[:], uint64(len(e.Body)))
		if _, err := bw.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := bw.Write(e.Body); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeSnapshot reads one snapshot stream back into entries. maxEntries
// bounds how many records are accepted and maxBody each record's body
// length; non-positive bounds reject everything, so callers must pass
// their real budgets. A stream that ends mid-record, overflows a bound
// or opens with the wrong magic is an error; a well-formed empty
// snapshot (header only) decodes to zero entries.
func DecodeSnapshot(r io.Reader, maxEntries, maxBody int) ([]Entry, error) {
	if maxBody < 0 {
		maxBody = 0 // a negative bound must not wrap to "unbounded" below
	}
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(magic[:]) != string(snapshotMagic) {
		return nil, ErrBadMagic
	}
	var entries []Entry
	for {
		var key Key
		if _, err := io.ReadFull(br, key[:]); err != nil {
			if err == io.EOF {
				return entries, nil // clean end between records
			}
			return nil, fmt.Errorf("cluster: snapshot truncated mid-key: %w", err)
		}
		if len(entries) >= maxEntries {
			return nil, ErrTooMany
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("cluster: snapshot truncated in body length: %w", err)
		}
		if n > uint64(maxBody) {
			return nil, fmt.Errorf("%w: %d bytes", ErrBodyTooLong, n)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("cluster: snapshot truncated mid-body: %w", err)
		}
		entries = append(entries, Entry{Key: key, Body: body})
	}
}

// EncodeMembers writes one membership view as a members message.
func EncodeMembers(w io.Writer, m Members) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(membersMagic); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], m.Epoch)
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	n = binary.PutUvarint(lenBuf[:], uint64(len(m.Peers)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	for _, p := range m.Peers {
		if len(p) > maxPeerURLLen {
			return fmt.Errorf("%w: %d bytes", ErrURLTooLong, len(p))
		}
		n = binary.PutUvarint(lenBuf[:], uint64(len(p)))
		if _, err := bw.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := bw.WriteString(p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeMembers reads one members message back. maxPeers bounds the
// peer count (non-positive rejects everything); each URL is bounded at
// maxPeerURLLen. The peer list is returned exactly as carried —
// Members.Merge and NewTopology re-canonicalise and validate, so a
// malformed list can fail a topology swap but never corrupt one.
func DecodeMembers(r io.Reader, maxPeers int) (Members, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Members{}, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(magic[:]) != string(membersMagic) {
		return Members{}, ErrBadMagic
	}
	epoch, err := binary.ReadUvarint(br)
	if err != nil {
		return Members{}, fmt.Errorf("cluster: members truncated in epoch: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return Members{}, fmt.Errorf("cluster: members truncated in count: %w", err)
	}
	if maxPeers < 0 {
		maxPeers = 0
	}
	if count > uint64(maxPeers) {
		return Members{}, fmt.Errorf("%w: %d peers", ErrTooMany, count)
	}
	peers := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return Members{}, fmt.Errorf("cluster: members truncated in URL length: %w", err)
		}
		if n > maxPeerURLLen {
			return Members{}, fmt.Errorf("%w: %d bytes", ErrURLTooLong, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return Members{}, fmt.Errorf("cluster: members truncated mid-URL: %w", err)
		}
		peers = append(peers, string(buf))
	}
	return Members{Epoch: epoch, Peers: peers}, nil
}

// EncodeDigest writes a key list as a digest message — a node's bounded
// cache-key inventory (served on GET /v1/peer/digest) or an anti-entropy
// want-list (POSTed to /v1/peer/fetch).
func EncodeDigest(w io.Writer, keys []Key) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(digestMagic); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(keys)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	for i := range keys {
		if _, err := bw.Write(keys[i][:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeDigest reads one digest message back, bounded at maxKeys
// (non-positive rejects everything).
func DecodeDigest(r io.Reader, maxKeys int) ([]Key, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(magic[:]) != string(digestMagic) {
		return nil, ErrBadMagic
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("cluster: digest truncated in count: %w", err)
	}
	if maxKeys < 0 {
		maxKeys = 0
	}
	if count > uint64(maxKeys) {
		return nil, fmt.Errorf("%w: %d keys", ErrTooMany, count)
	}
	keys := make([]Key, count)
	for i := range keys {
		if _, err := io.ReadFull(br, keys[i][:]); err != nil {
			return nil, fmt.Errorf("cluster: digest truncated mid-key: %w", err)
		}
	}
	return keys, nil
}
