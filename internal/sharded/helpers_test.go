package sharded

import (
	"context"

	"pathhist"
	"pathhist/internal/traj"
)

// Extend routes a batch to one shard's engine (the library-mode ingest; the
// serving layer routes through RouteIngest with its own durable write). An
// empty batch is a no-op with shard -1 and zero stats.
func (c *Cluster) Extend(ctx context.Context, batch *traj.Store) (int, pathhist.IngestStats, error) {
	var st pathhist.IngestStats
	if batch == nil || batch.Len() == 0 {
		return -1, st, nil
	}
	si, err := c.RouteIngest(batch, func(shard int) error {
		var err error
		st, err = c.shards[shard].eng.ExtendCtx(ctx, batch)
		return err
	})
	return si, st, err
}
