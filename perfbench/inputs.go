package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
)

// Every input the program receives is generated here from the run's
// seed: message bodies, echo structs, the corpus and the query mix. The
// program is handed the generated values only.

// --- pipeline: 64-byte checked messages -----------------------------------

const pipeBodySize = 64

// pipeBody writes one pipeline message into b (len pipeBodySize): sender
// id, sequence number, send time (ns since the run's base), a filler
// pattern derived from the seed, and a CRC-32 of everything before it.
func pipeBody(b []byte, sender uint8, seq uint64, sentNS int64, pattern []byte) {
	b[0] = sender
	binary.BigEndian.PutUint64(b[1:9], seq)
	binary.BigEndian.PutUint64(b[9:17], uint64(sentNS))
	for i := 17; i < pipeBodySize-4; i++ {
		b[i] = pattern[i] ^ byte(seq>>(8*(i%8)))
	}
	binary.BigEndian.PutUint32(b[pipeBodySize-4:], crc32.ChecksumIEEE(b[:pipeBodySize-4]))
}

// fillerPattern is the seed's filler bytes for the pipeline bodies.
func fillerPattern(seed int64) []byte {
	p := make([]byte, pipeBodySize)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// Delivery-check failures. Any of them fails the run.
var (
	errCorrupt   = errors.New("corrupted delivery")
	errDuplicate = errors.New("duplicated delivery")
	errReorder   = errors.New("reordered delivery")
)

// seqCheck verifies pipeline deliveries. Each receive loop pops the LCM
// inbox in FIFO order, so the messages from one sender that one loop sees
// must carry strictly increasing sequence numbers; a sequence number seen
// twice by any loop is a duplicate. Gaps are not errors here: they are
// messages that were accepted and never delivered, counted by missing.
type seqCheck struct {
	pattern []byte

	mu   sync.Mutex
	seen [][]uint64 // per sender: bitmap of delivered sequence numbers
	last [][]int64  // [loop][sender]: last sequence seen, -1 initially
	n    int64      // distinct deliveries
}

func newSeqCheck(senders, loops int, pattern []byte) *seqCheck {
	c := &seqCheck{pattern: pattern, seen: make([][]uint64, senders), last: make([][]int64, loops)}
	for l := range c.last {
		c.last[l] = make([]int64, senders)
		for s := range c.last[l] {
			c.last[l][s] = -1
		}
	}
	return c
}

// deliver checks one message received by loop and returns its send time.
func (c *seqCheck) deliver(loop int, b []byte) (sentNS int64, err error) {
	if len(b) != pipeBodySize || crc32.ChecksumIEEE(b[:pipeBodySize-4]) != binary.BigEndian.Uint32(b[pipeBodySize-4:]) {
		return 0, fmt.Errorf("%w: bad length or checksum (%d bytes)", errCorrupt, len(b))
	}
	sender := int(b[0])
	seq := binary.BigEndian.Uint64(b[1:9])
	if sender >= len(c.seen) {
		return 0, fmt.Errorf("%w: unknown sender %d", errCorrupt, sender)
	}
	for i := 17; i < pipeBodySize-4; i++ {
		if b[i] != c.pattern[i]^byte(seq>>(8*(i%8))) {
			return 0, fmt.Errorf("%w: filler byte %d of sender %d seq %d", errCorrupt, i, sender, seq)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	bits := c.seen[sender]
	w := int(seq / 64)
	if w >= len(bits) {
		bits = append(bits, make([]uint64, w-len(bits)+1+len(bits))...)
		c.seen[sender] = bits
	}
	if bits[w]&(1<<(seq%64)) != 0 {
		return 0, fmt.Errorf("%w: sender %d seq %d", errDuplicate, sender, seq)
	}
	if int64(seq) <= c.last[loop][sender] {
		return 0, fmt.Errorf("%w: sender %d seq %d after %d", errReorder, sender, seq, c.last[loop][sender])
	}
	bits[w] |= 1 << (seq % 64)
	c.last[loop][sender] = int64(seq)
	c.n++
	return int64(binary.BigEndian.Uint64(b[9:17])), nil
}

func (c *seqCheck) delivered() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// --- rpc_gateway: ~1 KiB structured bodies --------------------------------

// echoBody is the rpc_gateway request and reply: integers, strings and a
// byte block, about 1 KiB packed. ID carries the request id, so the echo
// server's spans join the caller's.
type echoBody struct {
	ID    int64
	Seq   int64
	Vals  []int64
	Name  string
	Tags  []string
	Block []byte
}

// echoBodies generates n distinct request templates from seed.
func echoBodies(seed int64, n int) []echoBody {
	rng := rand.New(rand.NewSource(seed))
	out := make([]echoBody, n)
	for i := range out {
		b := echoBody{
			Vals:  make([]int64, 16),
			Name:  randomText(rng, 6),
			Tags:  make([]string, 8),
			Block: make([]byte, 560),
		}
		for j := range b.Vals {
			b.Vals[j] = rng.Int63() - rng.Int63()
		}
		for j := range b.Tags {
			b.Tags[j] = randomText(rng, 2)
		}
		rng.Read(b.Block)
		out[i] = b
	}
	return out
}

// checkEcho reports whether the reply is the request after packed
// conversion both ways.
func checkEcho(req, rep *echoBody) error {
	if !reflect.DeepEqual(req, rep) {
		return fmt.Errorf("%w: echo reply for request %d differs from the request", errCorrupt, req.ID)
	}
	return nil
}

// --- URSA probe: corpus and query mix --------------------------------------

// vocabulary is the benchmark's own word list for documents and queries.
var vocabulary = strings.Fields(`network transparent message module name server
gateway circuit address packet layer nucleus relocation conversion machine
host index search document retrieval query term posting shard replica
stream buffer credit window latency kernel process remote image packed
shift monitor time recovery naming service`)

func randomText(rng *rand.Rand, words int) string {
	var sb strings.Builder
	for i := 0; i < words; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(vocabulary[rng.Intn(len(vocabulary))])
	}
	return sb.String()
}

// doc mirrors the fields of one corpus document the benchmark checks.
type doc struct {
	ID    int64
	Title string
	Text  string
}

// corpus generates one shard's documents. Titles embed the shard and id,
// so a hit answered from the wrong shard or document cannot match.
func corpus(seed int64, shard, n int) []doc {
	rng := rand.New(rand.NewSource(seed*7919 + int64(shard)))
	docs := make([]doc, n)
	for i := range docs {
		id := int64(i + 1)
		docs[i] = doc{
			ID:    id,
			Title: fmt.Sprintf("s%d-d%d %s", shard, id, randomText(rng, 3+rng.Intn(3))),
			Text:  randomText(rng, 20+rng.Intn(40)),
		}
	}
	return docs
}

// queries generates the query mix: n texts of two to four words.
func queries(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	out := make([]string, n)
	for i := range out {
		out[i] = randomText(rng, 2+rng.Intn(3))
	}
	return out
}

// shardOf routes a query text to a shard by content hash.
func shardOf(q string, shards int) int {
	h := fnv.New32a()
	_, _ = io.WriteString(h, q)
	return int(h.Sum32() % uint32(shards))
}
