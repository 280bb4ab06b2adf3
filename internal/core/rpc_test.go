package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/netsim"
)

func rpcPair(t *testing.T, sem Semantics) (*Testbed, *RPCClient) {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux, FramesPerHost: 1024})
	if err != nil {
		t.Fatal(err)
	}
	client := tb.A.Genie.NewProcess()
	server := tb.B.Genie.NewProcess()
	ec, es, err := NewChannel(client, server, 70, sem, 8192, 4)
	if err != nil {
		t.Fatal(err)
	}
	ServeRPC(es, func(req []byte) []byte {
		return append([]byte("echo:"), req...)
	}, func(err error) { t.Errorf("server: %v", err) })
	return tb, NewRPCClient(ec)
}

func TestRPCEcho(t *testing.T) {
	for _, sem := range []Semantics{Copy, EmulatedCopy, EmulatedShare, EmulatedWeakMove} {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			tb, client := rpcPair(t, sem)
			call, err := client.Go([]byte("ping"))
			if err != nil {
				t.Fatal(err)
			}
			tb.Run()
			if !call.Done {
				t.Fatal("call never completed")
			}
			if call.Err != nil {
				t.Fatal(call.Err)
			}
			if string(call.Reply) != "echo:ping" {
				t.Fatalf("reply %q", call.Reply)
			}
			if client.Outstanding() != 0 {
				t.Fatal("pending calls left")
			}
		})
	}
}

func TestRPCConcurrentCalls(t *testing.T) {
	tb, client := rpcPair(t, EmulatedCopy)
	var calls []*Call
	for i := 0; i < 4; i++ {
		call, err := client.Go([]byte(fmt.Sprintf("req-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call)
	}
	tb.Run()
	for i, call := range calls {
		if !call.Done || call.Err != nil {
			t.Fatalf("call %d: done=%t err=%v", i, call.Done, call.Err)
		}
		want := fmt.Sprintf("echo:req-%d", i)
		if string(call.Reply) != want {
			t.Fatalf("call %d reply %q, want %q (correlation broken)", i, call.Reply, want)
		}
	}
}

func TestRPCPipelinedBatches(t *testing.T) {
	tb, client := rpcPair(t, EmulatedShare)
	total := 0
	for batch := 0; batch < 5; batch++ {
		var calls []*Call
		for i := 0; i < 3; i++ {
			call, err := client.Go(bytes.Repeat([]byte{byte(total)}, 100))
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, call)
			total++
		}
		tb.Run()
		for _, call := range calls {
			if !call.Done || call.Err != nil {
				t.Fatalf("batch %d: %+v", batch, call)
			}
		}
	}
	if client.Outstanding() != 0 {
		t.Fatal("leaked pending calls")
	}
}

func TestRPCBackpressure(t *testing.T) {
	_, client := rpcPair(t, EmulatedCopy)
	// Window is 4: the fifth concurrent call must be refused, not lost.
	for i := 0; i < 4; i++ {
		if _, err := client.Go([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Go([]byte("x")); err == nil {
		t.Fatal("fifth concurrent call accepted beyond the window")
	}
}

// TestRPCLatency: one RPC costs roughly two one-way transfers; the
// emulated semantics keep it well under copy's.
func TestRPCLatency(t *testing.T) {
	rtt := func(sem Semantics) float64 {
		tb, client := rpcPair(t, sem)
		start := tb.Eng.Now()
		if _, err := client.Go(bytes.Repeat([]byte{1}, 8000)); err != nil {
			t.Fatal(err)
		}
		tb.Run()
		return tb.Eng.Now().Sub(start).Micros()
	}
	if c, ec := rtt(Copy), rtt(EmulatedCopy); ec >= c {
		t.Errorf("RPC RTT: emulated copy %.0f not below copy %.0f", ec, c)
	}
}

// TestServeRPCEchoReturnsRequest serves an echo handler that returns
// its borrowed request slice unchanged, over three times as many calls
// as the channel window holds, so requests arrive in recycled message
// buffers. Every reply must carry its own request's bytes.
func TestServeRPCEchoReturnsRequest(t *testing.T) {
	for _, sem := range []Semantics{Copy, EmulatedCopy, EmulatedShare, EmulatedWeakMove} {
		t.Run(sem.String(), func(t *testing.T) {
			tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux, FramesPerHost: 1024})
			if err != nil {
				t.Fatal(err)
			}
			const window = 4
			ec, es, err := NewChannel(tb.A.Genie.NewProcess(), tb.B.Genie.NewProcess(), 70, sem, 8192, window)
			if err != nil {
				t.Fatal(err)
			}
			ServeRPC(es, func(req []byte) []byte { return req }, func(err error) { t.Errorf("server: %v", err) })
			client := NewRPCClient(ec)
			for batch := 0; batch < 3; batch++ {
				var calls []*Call
				var reqs [][]byte
				for i := 0; i < window; i++ {
					req := bytes.Repeat([]byte{byte(window*batch + i + 1)}, 200+i)
					call, err := client.Go(req)
					if err != nil {
						t.Fatal(err)
					}
					calls, reqs = append(calls, call), append(reqs, req)
				}
				tb.Run()
				for i, call := range calls {
					if !call.Done || call.Err != nil {
						t.Fatalf("batch %d call %d: done=%t err=%v", batch, i, call.Done, call.Err)
					}
					if !bytes.Equal(call.Reply, reqs[i]) {
						t.Fatalf("batch %d call %d: reply %x... is not the request %x...", batch, i, call.Reply[:4], reqs[i][:4])
					}
				}
			}
		})
	}
}
