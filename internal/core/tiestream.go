package core

import "slices"

// The TieRandom stream. Every TieRandom pick of both engines, and of the
// phase loops around them, draws from one stream per owner (a vertex, a
// customer, or a server) that this file alone defines: the seed, the
// reservoir step, and the pick over a port set. Both engines therefore
// draw the same values in the same order, and their TieRandom runs are
// bit-identical, as their TieFirstPort runs are.

// SplitMix64 is the generator step of the TieRandom streams: cheap,
// allocation-free, and seedable per owner. The Resolver also derives its
// per-customer streams from it.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TieSeed returns the TieRandom stream of owner in a solve seeded with
// seed. Game vertices own their index (in a phase loop's game, the
// original index of the vertex or server they stand for); in the
// assignment phase loops' accepts customer c owns c and server s owns
// NumLeft + s.
func TieSeed(seed int64, owner int) uint64 {
	return SplitMix64(uint64(seed) ^ uint64(owner)*0x9e3779b97f4a7c15)
}

// TieKeep is the reservoir step of every TieRandom pick: it advances the
// stream by one draw and reports whether the n-th candidate (n counts
// from 1) replaces the pick so far, which it does with probability 1/n.
func TieKeep(stream *uint64, n int) bool {
	*stream = SplitMix64(*stream)
	return (*stream>>32)*uint64(n)>>32 == 0
}

// PickPort returns one index of the true entries of eligible per the
// tie-break rule, or -1 if none is true: the lowest under TieFirstPort,
// and under TieRandom the reservoir pick that draws TieKeep once per
// candidate, from the first on. stream is read only under TieRandom.
func PickPort(eligible []bool, tie TieBreak, stream *uint64) int {
	choice, n := -1, 0
	for p, ok := range eligible {
		if !ok {
			continue
		}
		if tie == TieFirstPort {
			return p
		}
		if n++; TieKeep(stream, n) {
			choice = p
		}
	}
	return choice
}

// PickReceived is PickPort for a grant or an accept over the ports a
// message arrived on this round. The flat programs count those messages
// while reading the inbox and take a lone candidate without a draw, so
// this pick does too.
func PickReceived(received []bool, tie TieBreak, stream *uint64) int {
	if first := slices.Index(received, true); first >= 0 && !slices.Contains(received[first+1:], true) {
		return first
	}
	return PickPort(received, tie, stream)
}
