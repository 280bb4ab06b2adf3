package core

import (
	"bytes"
	"testing"

	"repro/internal/faults"
)

// Buffer retention: a Message's payload lives in a host buffer the
// endpoint reuses once the message is released, and a Reliable upcall's
// payload is a view into that buffer. These tests hold payloads across
// later deliveries the way the API permits: a Message until its
// Release, an upcall payload only as a copy.

// TestMessageHeldAcrossLaterDelivery holds message 1 while message 2
// arrives and is released and message 3 arrives into the recycled
// buffer: message 1's bytes must not change, and Data must be nil once a
// message is released.
func TestMessageHeldAcrossLaterDelivery(t *testing.T) {
	for _, sem := range AllSemantics() {
		t.Run(sem.String(), func(t *testing.T) {
			tb, ea, eb := channelPair(t, sem, 4096, 2)
			recv := func(fill byte) *Message {
				t.Helper()
				if _, err := ea.Send(bytes.Repeat([]byte{fill}, 1000)); err != nil {
					t.Fatal(err)
				}
				tb.Run()
				m, ok := eb.Recv()
				if !ok || m.Err() != nil {
					t.Fatalf("message %#x: ok=%t", fill, ok)
				}
				return m
			}
			m1 := recv(0xa1)
			held := bytes.Clone(m1.Data())
			m2 := recv(0xb2)
			if err := m2.Release(); err != nil {
				t.Fatal(err)
			}
			if m2.Data() != nil {
				t.Fatal("Data() after Release is not nil")
			}
			m3 := recv(0xc3)
			if !bytes.Equal(m1.Data(), held) {
				t.Fatalf("held message changed under later deliveries: %x... became %x...", held[:4], m1.Data()[:4])
			}
			if m3.Data()[0] != 0xc3 {
				t.Fatalf("message 3 reads %#x", m3.Data()[0])
			}
			for _, m := range []*Message{m1, m3} {
				if err := m.Release(); err != nil {
					t.Fatal(err)
				}
				if m.Data() != nil {
					t.Fatal("Data() after Release is not nil")
				}
			}
		})
	}
}

// TestReliableDeliveredCopiesSurviveReuse copies each payload inside
// the upcall and checks every copy after all deliveries, with drops so
// that frames are retransmitted from reused frame buffers and acks race
// new sends. The upcall also checks its view against the sent bytes
// while it is valid.
func TestReliableDeliveredCopiesSurviveReuse(t *testing.T) {
	for _, sem := range []Semantics{Copy, EmulatedCopy, EmulatedShare, EmulatedWeakMove} {
		t.Run(sem.String(), func(t *testing.T) {
			tb, ra, rb := reliablePair(t, faults.Spec{Seed: 5, Drop: 0.3}, sem, ReliableConfig{})
			sent := make(map[uint32][]byte)
			copies := make(map[uint32][]byte)
			rb.OnDeliver(func(seq uint32, payload []byte) {
				if !bytes.Equal(payload, sent[seq]) {
					t.Errorf("seq %d: upcall view differs from the sent bytes", seq)
				}
				copies[seq] = bytes.Clone(payload)
			})
			for round := 0; round < 4; round++ {
				for i := 0; i < 8; i++ {
					payload := bytes.Repeat([]byte{byte(16*round + i + 1)}, 300+40*i)
					seq, err := ra.Send(payload)
					if err != nil {
						t.Fatal(err)
					}
					sent[seq] = payload
				}
				tb.Run()
			}
			if len(copies) != len(sent) {
				t.Fatalf("delivered %d of %d", len(copies), len(sent))
			}
			for seq, want := range sent {
				if !bytes.Equal(copies[seq], want) {
					t.Errorf("seq %d: copy changed after later deliveries", seq)
				}
			}
			if ra.Stats().Retransmits == 0 {
				t.Fatal("no retransmits: frames were never resent from reused buffers")
			}
		})
	}
}
