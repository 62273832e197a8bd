package catalog

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"alohadb/internal/kv"
	"alohadb/internal/scenario"
)

// Social-feed fanout: a read-heavy workload where every post is a
// multi-key transaction appending to one celebrity timeline and a few
// follower timelines. A handful of celebrity keys absorb most writes, so
// their functor chains are long and contended while reader snapshots
// race the fanout — the oracle's torn-transaction check is exactly the
// "did a reader see half a fanout" question.
const (
	feedCelebs  = 4
	feedUsers   = 48
	feedWriters = 4
	feedReaders = 8
)

func registerFeed(r *scenario.Registry) {
	r.MustRegister(&scenario.Scenario{
		Name:    "feed-fanout",
		Summary: "read-heavy social-feed fanout with hot celebrity timelines under light chaos",
		Attrs:   []string{"contention", "chaos", "soak", "smoke"},
		Shape: func(p scenario.Params) scenario.EnvConfig {
			cfg := chaosEnv(3, p.Seed)
			cfg.Retention = 16
			return cfg
		},
		Run: runFeedFanout,
	})
}

func feedKeys() (celebs, users, all []kv.Key) {
	for i := 0; i < feedCelebs; i++ {
		celebs = append(celebs, kv.Key(fmt.Sprintf("feed:celeb:%d", i)))
	}
	for i := 0; i < feedUsers; i++ {
		users = append(users, kv.Key(fmt.Sprintf("feed:user:%02d", i)))
	}
	all = append(append(all, celebs...), users...)
	return
}

// pickCeleb skews writes toward celebrity 0: the minimum of two uniform
// draws lands on the low indices most of the time.
func pickCeleb(rng *rand.Rand) int {
	a, b := rng.Intn(feedCelebs), rng.Intn(feedCelebs)
	if b < a {
		a = b
	}
	return a
}

// feedLoad is the fanout on the shared tag-append load: one post appends
// to a celebrity timeline plus two distinct follower timelines, and a read
// covers a celebrity and two followers.
func feedLoad() *appendLoad {
	celebs, users, all := feedKeys()
	return &appendLoad{
		keys:    all,
		writers: feedWriters,
		readers: feedReaders,
		writeKeys: func(rng *rand.Rand) []kv.Key {
			u1 := rng.Intn(feedUsers)
			u2 := (u1 + 1 + rng.Intn(feedUsers-1)) % feedUsers
			return []kv.Key{celebs[pickCeleb(rng)], users[u1], users[u2]}
		},
		readKeys: func(rng *rand.Rand) []kv.Key {
			return []kv.Key{celebs[pickCeleb(rng)], users[rng.Intn(feedUsers)], users[rng.Intn(feedUsers)]}
		},
	}
}

func runFeedFanout(ctx context.Context, env *scenario.Env) error {
	d := feedLoad()
	if err := d.run(ctx, env, 0); err != nil {
		return err
	}
	env.Logf("posts: %s", d.summary(env.Oracle))
	if _, committed, _, _, _ := env.Oracle.Counts(); committed == 0 {
		return fmt.Errorf("no post committed in a %s window", env.Window)
	}
	return requireP99(env, "post", d.lat, 400*time.Millisecond)
}
