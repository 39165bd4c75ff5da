package serial

import (
	"strings"
	"testing"
	"testing/quick"

	"netfi/internal/core"
	"netfi/internal/sim"
)

func TestUARTByteTiming(t *testing.T) {
	k := sim.NewKernel(1)
	var times []sim.Time
	u := NewUART(k, 115200, ByteSinkFunc(func(byte) { times = append(times, k.Now()) }))
	u.Send([]byte("AB"))
	k.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d bytes, want 2", len(times))
	}
	// 10 bits at 115200 baud = 86.805... us per byte.
	bt := u.byteTime
	if bt < 86*sim.Microsecond || bt > 87*sim.Microsecond {
		t.Errorf("byteTime = %v, want ~86.8us", bt)
	}
	if times[0] != bt || times[1] != 2*bt {
		t.Errorf("delivery times %v, want [%v %v]", times, bt, 2*bt)
	}
}

func TestUARTQueuesBehindBusyLine(t *testing.T) {
	k := sim.NewKernel(1)
	var got []byte
	u := NewUART(k, 0, ByteSinkFunc(func(b byte) { got = append(got, b) }))
	u.Send([]byte("first "))
	u.Send([]byte("second"))
	k.Run()
	if string(got) != "first second" {
		t.Errorf("got %q", got)
	}
	if u.Sent() != 12 {
		t.Errorf("Sent() = %d, want 12", u.Sent())
	}
}

func TestSPIFrameRoundTrip(t *testing.T) {
	prop := func(b byte) bool {
		f := NewDataFrame(b)
		return f.IsData() && f.Payload() == b && f.Tag() == TagData
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSPIAssemblerPackUnpack(t *testing.T) {
	var a Assembler
	data := []byte("MODE ON\n")
	frames := a.Pack(nil, data)
	got := a.Unpack(nil, frames)
	if string(got) != string(data) {
		t.Errorf("round trip = %q, want %q", got, data)
	}
}

func TestSPIAssemblerRejectsUnknownTags(t *testing.T) {
	var a Assembler
	frames := []Frame{NewDataFrame('A'), NewStatusFrame(0x01), NewDataFrame('B'), Frame(0xFFFF)}
	got := a.Unpack(nil, frames)
	if string(got) != "AB" {
		t.Errorf("unpacked %q, want AB", got)
	}
	if a.rejected != 2 {
		t.Errorf("rejected = %d, want 2", a.rejected)
	}
}

func TestConsoleConfiguresDeviceOverSerial(t *testing.T) {
	k := sim.NewKernel(1)
	dev := core.NewDevice(k, core.DeviceConfig{Name: "inj"})
	con := NewConsole(k, dev, 115200)
	con.Send("MODE ONCE")
	con.Send("COMPARE -- -- 18 18")
	k.Run()
	if dev.Engine(core.LeftToRight).Config().Match != core.MatchOnce {
		t.Error("device not configured over the serial path")
	}
	resp := con.Responses()
	if len(resp) != 2 || resp[0] != "OK" || resp[1] != "OK" {
		t.Errorf("responses = %q", resp)
	}
}

func TestConsoleSerialPathCostsRealTime(t *testing.T) {
	// A ~10-byte command at 115200 baud costs close to a millisecond of
	// simulated time — "the slower serial line" of §3.3.
	k := sim.NewKernel(1)
	dev := core.NewDevice(k, core.DeviceConfig{Name: "inj"})
	con := NewConsole(k, dev, 115200)
	con.Send("MODE ONCE")
	k.Run()
	if k.Now() < 800*sim.Microsecond {
		t.Errorf("serial round trip completed in %v; too fast for 115200 baud", k.Now())
	}
	if con.LastResponse() != "OK" {
		t.Errorf("LastResponse = %q", con.LastResponse())
	}
}

func TestConsoleErrorResponse(t *testing.T) {
	k := sim.NewKernel(1)
	dev := core.NewDevice(k, core.DeviceConfig{Name: "inj"})
	con := NewConsole(k, dev, 0)
	con.Send("BOGUS CMD")
	k.Run()
	if !strings.HasPrefix(con.LastResponse(), "ERR") {
		t.Errorf("LastResponse = %q, want ERR...", con.LastResponse())
	}
}

func TestConsoleStatOverSerial(t *testing.T) {
	k := sim.NewKernel(1)
	dev := core.NewDevice(k, core.DeviceConfig{Name: "inj"})
	con := NewConsole(k, dev, 0)
	con.Send("STAT")
	k.Run()
	found := false
	for _, l := range con.Responses() {
		if strings.HasPrefix(l, "STAT dir=L2R") {
			found = true
		}
	}
	if !found {
		t.Errorf("no STAT line in %q", con.Responses())
	}
}

func TestUARTNilSinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil sink did not panic")
		}
	}()
	NewUART(sim.NewKernel(1), 0, nil)
}

// NewStatusFrame wraps one status code.
func NewStatusFrame(code byte) Frame { return Frame(uint16(TagStatus)<<8 | uint16(code)) }
