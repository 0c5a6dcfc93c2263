package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/workload"
)

// Input generation. Everything a run sends is generated from the seed
// and NDJSON-encoded before flexd starts, so the client does no
// generation or encoding work while a request is being timed.

const (
	popDays  = 2    // workload.Population day spread
	popZones = 4    // grid zones stamped on every offer
	horizon  = 48   // /v1/schedule horizon (the server default)
	batchLen = 1000 // offers per preload/ingest NDJSON batch
)

// zoneSalt decouples the zone stream from the offer stream, as flexgen
// does, so zones never perturb the offers themselves.
const zoneSalt = 0x5a4f4e45

// fleet is a generated offer population with unique, counter-assigned
// IDs. Population draws no IDs itself; assigning them from a counter
// after generation guarantees that every offer is a distinct prosumer
// (flexgen's random IDs collide: -n 20000 stores fewer than 17k).
type fleet struct {
	offers  []*flexoffer.FlexOffer
	batches [][]byte // NDJSON bodies of batchLen offers, in order
}

func genFleet(seed int64, n int) (*fleet, error) {
	r := rand.New(rand.NewSource(seed))
	offers, err := workload.Population(r, n, popDays, workload.DefaultMix())
	if err != nil {
		return nil, err
	}
	workload.StampZones(rand.New(rand.NewSource(seed^zoneSalt)), offers, popZones)
	for i, f := range offers {
		f.ID = fmt.Sprintf("p%07d", i)
	}
	fl := &fleet{offers: offers}
	for lo := 0; lo < n; lo += batchLen {
		body, err := encodeNDJSON(offers[lo:min(lo+batchLen, n)])
		if err != nil {
			return nil, err
		}
		fl.batches = append(fl.batches, body)
	}
	return fl, nil
}

func encodeNDJSON(offers []*flexoffer.FlexOffer) ([]byte, error) {
	var b bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&b, offers); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// resubmitter draws resubmission batches against a fleet: each batch
// names k distinct stored offers and gives each a fresh energy profile
// from the same device mix, keeping its ID, zone and earliest start —
// the same prosumer revising its offer. Every resubmission therefore
// replaces exactly one stored offer.
type resubmitter struct {
	r   *rand.Rand
	mix workload.Mix
	fl  *fleet
}

func newResubmitter(seed int64, fl *fleet) *resubmitter {
	return &resubmitter{r: rand.New(rand.NewSource(seed)), mix: workload.DefaultMix(), fl: fl}
}

// batch returns the NDJSON body of the next k resubmissions of offers
// among the first n of the fleet.
func (rs *resubmitter) batch(k, n int) ([]byte, error) {
	out := make([]*flexoffer.FlexOffer, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		i := rs.r.Intn(n)
		if seen[i] {
			continue
		}
		seen[i] = true
		old := rs.fl.offers[i]
		d, err := rs.mix.Sample(rs.r)
		if err != nil {
			return nil, err
		}
		f, err := workload.Generate(rs.r, d)
		if err != nil {
			return nil, err
		}
		if f, err = f.Shift(old.EarliestStart - f.EarliestStart); err != nil {
			return nil, err
		}
		f.ID, f.Zone = old.ID, old.Zone
		out = append(out, f)
	}
	return encodeNDJSON(out)
}

// batches pre-generates count resubmission bodies.
func (rs *resubmitter) batches(count, k, n int) ([][]byte, error) {
	out := make([][]byte, count)
	for i := range out {
		b, err := rs.batch(k, n)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
