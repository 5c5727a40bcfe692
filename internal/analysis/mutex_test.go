package analysis

import "testing"

func TestMutexHygieneLockBalance(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "lock with no unlock",
			src: `package x

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Bad() {
	s.mu.Lock()
}
`,
			want: []string{"a.go:8:mutexhygiene"},
		},
		{
			name: "deferred unlock balances",
			src: `package x

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Good() {
	s.mu.Lock()
	defer s.mu.Unlock()
}
`,
			want: nil,
		},
		{
			name: "conditional early unlock balances (dnswire Close pattern)",
			src: `package x

import "sync"

type S struct {
	mu     sync.Mutex
	closed bool
}

func (s *S) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return nil
}
`,
			want: nil,
		},
		{
			name: "rlock needs runlock, not unlock",
			src: `package x

import "sync"

type S struct{ mu sync.RWMutex }

func (s *S) Bad() {
	s.mu.RLock()
	s.mu.Unlock()
}

func (s *S) Good() {
	s.mu.RLock()
	s.mu.RUnlock()
}
`,
			want: []string{"a.go:8:mutexhygiene"},
		},
		{
			name: "different receivers tracked separately",
			src: `package x

import "sync"

type S struct{ a, b sync.Mutex }

func (s *S) Bad() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
}
`,
			want: []string{"a.go:8:mutexhygiene"},
		},
		{
			name: "non-sync Lock method is not tracked",
			src: `package x

type flock struct{}

func (flock) Lock() {}

func f(fl flock) {
	fl.Lock()
}
`,
			want: nil,
		},
		{
			name: "unlock in deferred closure balances",
			src: `package x

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Good() {
	s.mu.Lock()
	defer func() { s.mu.Unlock() }()
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{"a.go": tc.src}
			wantDiags(t, checkFixture(t, MutexHygiene, "anycastcdn/internal/fixture", files), tc.want)
		})
	}
}
