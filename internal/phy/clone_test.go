package phy

import (
	"strings"
	"testing"

	"netfi/internal/sim"
)

// finishFork clones k, then whatever clone adds, and returns Finish's error.
func finishFork(k *sim.Kernel, clone func(m *sim.Mapper)) error {
	m := sim.NewMapper()
	k.Clone(m)
	clone(m)
	return m.Finish()
}

// A pending delivery to a receiver nobody cloned fails the fork with an
// error rather than a panic. Neither the receiver nor the link is cloned,
// so the delivery event itself is what reports it.
func TestForkFailsOnDeliveryToUnclonedReceiver(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewLink(k, allocLink, &recorder{pool: PoolOf(k)})
	link.Send(DataChars([]byte{1, 2, 3}))
	err := finishFork(k, func(*sim.Mapper) {})
	if err == nil || !strings.Contains(err.Error(), "delivery to uncloned receiver") {
		t.Fatalf("fork with a delivery to an uncloned receiver: err = %v", err)
	}
}

// A channelized link cannot fork; the fork fails with an error naming it.
func TestForkFailsOnDeliverySink(t *testing.T) {
	k := sim.NewKernel(1)
	rec := &recorder{pool: PoolOf(k)}
	link := NewLink(k, allocLink, rec)
	link.SetDeliverySink(NewDirectEnd(k, 0))
	err := finishFork(k, func(m *sim.Mapper) {
		rec.Clone(m)
		link.Clone(m)
	})
	if err == nil || !strings.Contains(err.Error(), "delivery sink") || !strings.Contains(err.Error(), allocLink.Name) {
		t.Fatalf("fork of a channelized link: err = %v", err)
	}
}
