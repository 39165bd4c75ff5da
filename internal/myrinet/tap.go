package myrinet

import "netfi/internal/phy"

// SetTap installs (or, with nil, removes) the controller's tap on its
// arriving stream.
func (lc *LinkController) SetTap(t phy.Tap) { lc.tap = t }

// SetPortTap installs a tap on switch port p's input stream: everything the
// attached device transmits into the switch. Panics if nothing is attached
// at p.
func (sw *Switch) SetPortTap(p int, t phy.Tap) {
	if !sw.Attached(p) {
		panic("myrinet: SetPortTap on unattached port")
	}
	sw.ports[p].lc.SetTap(t)
}

// SetTap installs a tap on the interface's input stream: everything
// arriving at this host from the network. The interface must be attached.
func (ifc *Interface) SetTap(t phy.Tap) {
	if ifc.lc == nil {
		panic("myrinet: SetTap before AttachLink")
	}
	ifc.lc.SetTap(t)
}
