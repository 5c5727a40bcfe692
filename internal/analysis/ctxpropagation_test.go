package analysis

import "testing"

func TestCtxPropagation(t *testing.T) {
	cases := []struct {
		name  string
		path  string
		files map[string]string
		want  []string
	}{
		{
			name: "blocking read ignoring ctx",
			path: "anycastcdn/internal/distsim",
			files: map[string]string{"a.go": `package distsim

import (
	"context"
	"net"
	"time"
)

func f(ctx context.Context, conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	buf := make([]byte, 64)
	_, err := conn.Read(buf)
	return err
}
`},
			want: []string{"a.go:14:ctxpropagation"},
		},
		{
			name: "ctx deadline consulted directly",
			path: "anycastcdn/internal/distsim",
			files: map[string]string{"a.go": `package distsim

import (
	"context"
	"net"
	"time"
)

func f(ctx context.Context, conn net.Conn) error {
	dl, ok := ctx.Deadline()
	if !ok {
		dl = time.Now().Add(5 * time.Second)
	}
	if err := conn.SetDeadline(dl); err != nil {
		return err
	}
	buf := make([]byte, 64)
	_, err := conn.Read(buf)
	return err
}
`},
			want: nil,
		},
		{
			name: "ctx handed to a same-package watcher",
			path: "anycastcdn/internal/distsim",
			files: map[string]string{"a.go": `package distsim

import (
	"context"
	"net"
	"time"
)

func watch(ctx context.Context, conn net.Conn) func() {
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.SetDeadline(time.Unix(1, 0))
		case <-stop:
		}
	}()
	return func() { close(stop) }
}

func f(ctx context.Context, conn net.Conn) error {
	defer watch(ctx, conn)()
	buf := make([]byte, 64)
	_, err := conn.Read(buf)
	return err
}
`},
			want: nil,
		},
		{
			name: "ctx-less net.Dial",
			path: "anycastcdn/internal/distsim",
			files: map[string]string{"a.go": `package distsim

import "net"

func f(addr string) (net.Conn, error) {
	return net.Dial("udp", addr)
}
`},
			want: []string{"a.go:6:ctxpropagation"},
		},
		{
			name: "functions without ctx params are out of scope",
			path: "anycastcdn/internal/distsim",
			files: map[string]string{"a.go": `package distsim

import "net"

func f(conn net.Conn) error {
	buf := make([]byte, 64)
	_, err := conn.Read(buf)
	return err
}
`},
			want: nil,
		},
		{
			name: "unrestricted packages are out of scope",
			path: "anycastcdn/internal/geo",
			files: map[string]string{"a.go": `package geo

import (
	"context"
	"net"
)

func f(ctx context.Context, conn net.Conn) error {
	buf := make([]byte, 64)
	_, err := conn.Read(buf)
	return err
}
`},
			want: nil,
		},
		{
			name: "test files are exempt",
			path: "anycastcdn/internal/distsim",
			files: map[string]string{"a_test.go": `package distsim

import "net"

func f(addr string) (net.Conn, error) {
	return net.Dial("udp", addr)
}
`},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDiags(t, checkFixture(t, CtxPropagation, tc.path, tc.files), tc.want)
		})
	}
}
