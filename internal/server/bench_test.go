package server

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"kanon"
	"kanon/internal/dataset"
	"kanon/internal/store"
)

// BenchmarkManagerRoundTrip prices one job through the manager: submit
// a 300-row census table, wait for Done. The memory case runs with no
// configured store, the local case on a store in a temporary directory
// (fsync'd spools, manifests, journal and trace).
func BenchmarkManagerRoundTrip(b *testing.B) {
	header, rows := renderTable(dataset.Census(rand.New(rand.NewSource(7)), 300, 6))
	req := JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall}
	for _, tc := range []struct {
		name  string
		store func(b *testing.B) *store.Store
	}{
		{"memory", func(*testing.B) *store.Store { return nil }},
		{"local", func(b *testing.B) *store.Store {
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return st
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := NewManager(Config{Store: tc.store(b)})
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = m.Shutdown(ctx)
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job, err := m.Submit(header, rows, req)
				if err != nil {
					b.Fatal(err)
				}
				<-job.Done()
				if _, ok := job.Result(); !ok {
					b.Fatalf("job failed: %+v", job.Status())
				}
			}
		})
	}
}
