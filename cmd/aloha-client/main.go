// Command aloha-client is a minimal CLI for a TCP-deployed ALOHA-DB
// cluster: put, get, add, and delete against any server.
//
//	aloha-client -peers localhost:7000,localhost:7001 put mykey hello
//	aloha-client -peers localhost:7000,localhost:7001 get mykey
//	aloha-client -peers localhost:7000,localhost:7001 add counter 5
//	aloha-client -peers localhost:7000,localhost:7001 del mykey
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		peers  = flag.String("peers", "", "comma-separated server addresses")
		server = flag.Int("server", 0, "server index to talk to")
		wait   = flag.Bool("wait", true, "wait for functor computing (ack option 2)")
	)
	flag.Parse()
	args := flag.Args()
	if *peers == "" || len(args) < 2 {
		return fmt.Errorf("usage: aloha-client -peers a,b,c <put|get|add|del> <key> [value]")
	}
	list := strings.Split(*peers, ",")
	if *server < 0 || *server >= len(list) {
		return fmt.Errorf("server index %d out of range", *server)
	}
	book := map[transport.NodeID]string{
		transport.NodeID(*server): strings.TrimSpace(list[*server]),
		// The client joins the mesh on an ephemeral high ID and port.
		transport.NodeID(1000): "127.0.0.1:0",
	}
	core.RegisterMessages()
	net := transport.NewTCPNetwork(book)
	defer net.Close()
	conn, err := net.Node(1000, func(context.Context, transport.NodeID, any) (any, error) { return nil, nil })
	if err != nil {
		return err
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dst := transport.NodeID(*server)

	cmd, key := args[0], kv.Key(args[1])
	switch cmd {
	case "get":
		raw, err := conn.Call(ctx, dst, core.MsgClientGet{Key: key})
		if err != nil {
			return err
		}
		resp, ok := raw.(core.MsgClientGetResp)
		if !ok {
			return fmt.Errorf("get: server answered with %T", raw)
		}
		if !resp.Found {
			fmt.Println("(not found)")
			return nil
		}
		if n, ok := kv.DecodeInt64(resp.Value); ok {
			fmt.Printf("%s = %d\n", key, n)
			return nil
		}
		fmt.Printf("%s = %q\n", key, resp.Value)
		return nil
	case "put", "add", "del":
		var fn *functor.Functor
		switch cmd {
		case "put":
			if len(args) < 3 {
				return fmt.Errorf("put needs a value")
			}
			fn = functor.Value(kv.Value(args[2]))
		case "add":
			if len(args) < 3 {
				return fmt.Errorf("add needs a delta")
			}
			d, err := strconv.ParseInt(args[2], 10, 64)
			if err != nil {
				return err
			}
			fn = functor.Add(d)
		case "del":
			fn = functor.Deleted()
		}
		raw, err := conn.Call(ctx, dst, core.MsgClientSubmit{
			Writes:       []core.Write{{Key: key, Functor: fn}},
			WaitComputed: *wait,
		})
		if err != nil {
			return err
		}
		resp, ok := raw.(core.MsgClientSubmitResp)
		if !ok {
			return fmt.Errorf("%s: server answered with %T", cmd, raw)
		}
		if resp.Aborted {
			fmt.Printf("aborted at %v: %s\n", resp.Version, resp.Reason)
			return nil
		}
		fmt.Printf("committed at %v\n", resp.Version)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
