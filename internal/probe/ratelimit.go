package probe

import (
	"sync"
	"time"
)

// tokenBucket is a reservation-style token bucket driven by an external
// clock: Reserve never sleeps, it hands back how long the caller must wait
// before its reserved slot begins. Tokens refill continuously at rate per
// second up to one, so there are no bursts; reservations may drive the
// balance negative, which is what serializes concurrent callers onto future
// slots — the long-run request rate can therefore never exceed rate,
// regardless of worker count.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables limiting
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, now time.Time) *tokenBucket {
	return &tokenBucket{rate: rate, tokens: 1, last: now}
}

// reserve claims one token and returns how long the caller must wait (zero
// when a token is immediately available).
func (tb *tokenBucket) reserve(now time.Time) time.Duration {
	if tb.rate <= 0 {
		return 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if now.After(tb.last) {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		tb.tokens = min(tb.tokens, 1)
		tb.last = now
	}
	tb.tokens--
	if tb.tokens >= 0 {
		return 0
	}
	return time.Duration(-tb.tokens / tb.rate * float64(time.Second))
}
