package zgrab

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"testing"
	"time"
)

// checkAppendJSON asserts AppendJSON reproduces json.Marshal: the same
// bytes, or the same error text.
func checkAppendJSON(t *testing.T, r *Result) {
	t.Helper()
	want, werr := json.Marshal(r)
	got, gerr := r.AppendJSON([]byte("prefix"))
	if (werr != nil) != (gerr != nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("error mismatch: json.Marshal %v, AppendJSON %v", werr, gerr)
	}
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("AppendJSON clobbered its buffer: %q", got)
	}
	if werr == nil && !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendJSON mismatch:\n got %s\nwant %s", got[len("prefix"):], want)
	}
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	at := time.Date(2024, 7, 20, 12, 0, 0, 0, time.UTC)
	full := grabResult()
	full.Error, full.Attempts = "read: connection reset", 3
	cases := map[string]*Result{
		"zero":      {},
		"ipv4":      {IP: netip.MustParseAddr("192.0.2.1"), Module: "http", Port: 80, Time: at, Status: StatusTimeout},
		"4in6":      {IP: netip.MustParseAddr("::ffff:192.0.2.1"), Module: "ssh", Port: 22, Time: at, Status: StatusRefused},
		"zoned":     {IP: netip.MustParseAddr("fe80::1%eth0"), Module: "coap", Port: 5683, Time: at, Status: StatusSuccess},
		"zone<>":    {IP: netip.MustParseAddr("fe80::1").WithZone(`a"<&>\`), Time: at},
		"html":      {Module: "<>&", Status: "a&b", Error: `"quoted" \ back`, Time: at},
		"badutf8":   {Module: "ok", Error: "bad \xff\xfe byte", Time: at},
		"u2028":     {Error: "line\u2028sep\u2029", Time: at},
		"control":   {Error: "tab\tnl\n\x00", Time: at},
		"unicode":   {Error: "héllo ✓", Time: at},
		"nanos":     {Time: time.Date(2024, 1, 2, 3, 4, 5, 120000000, time.UTC)},
		"offset":    {Time: time.Date(2024, 1, 2, 3, 4, 5, 1, time.FixedZone("X", 5*3600+30*60))},
		"negzone":   {Time: time.Date(2024, 1, 2, 3, 4, 5, 0, time.FixedZone("Y", -8*3600))},
		"local":     {Time: at.Local()},
		"year0":     {Time: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)},
		"year9999":  {Time: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)},
		"year-1":    {Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		"year10k":   {Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		"zone24h":   {Time: time.Date(2024, 1, 1, 0, 0, 0, 0, time.FixedZone("Z", 24*3600))},
		"zone100h":  {Time: time.Date(2024, 1, 1, 0, 0, 0, 0, time.FixedZone("Z", -100*3600))},
		"attempts":  {Attempts: -2, Port: 65535, Time: at},
		"full":      full,
		"tlsyear":   {Time: at, TLS: &TLSGrab{NotAfter: time.Date(12000, 1, 1, 0, 0, 0, 0, time.UTC)}},
		"emptygrab": {Time: at, MQTT: &MQTTGrab{}, CoAP: &CoAPGrab{}},
	}
	for name, g := range map[string]func(*Result){
		"http": func(r *Result) { r.HTTP = &HTTPGrab{StatusCode: 200, Title: "<t>", Server: "s\xff"} },
		"tls":  func(r *Result) { r.TLS = &TLSGrab{Version: "TLS 1.2", HandshakeOK: true, NotBefore: at} },
		"ssh":  func(r *Result) { r.SSH = &SSHGrab{ServerID: "SSH-2.0-OpenSSH_9.6", Software: "OpenSSH"} },
		"mqtt": func(r *Result) { r.MQTT = &MQTTGrab{ReturnCode: 5} },
		"amqp": func(r *Result) { r.AMQP = &AMQPGrab{Product: "RabbitMQ", CloseCode: 530} },
		"coap": func(r *Result) { r.CoAP = &CoAPGrab{Code: "2.05", Resources: []string{"/a", "</b>"}} },
	} {
		r := &Result{IP: netip.MustParseAddr("2001:db8::2"), Module: name, Time: at, Status: StatusSuccess}
		g(r)
		cases["grab-"+name] = r
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) { checkAppendJSON(t, r) })
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// JSONLWriter lines are AppendJSON plus a newline, and a result that
// does not encode writes nothing.
func TestJSONLWriterLines(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	good := grabResult()
	if err := w.Write(good); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Result{Time: time.Date(-5, 1, 1, 0, 0, 0, 0, time.UTC)}); err == nil {
		t.Fatal("out-of-range year encoded")
	}
	if err := w.Write(good); err != nil {
		t.Fatal(err)
	}
	line := append(mustMarshal(t, good), '\n')
	if want := append(append([]byte(nil), line...), line...); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSONL bytes:\n%s\nwant\n%s", buf.Bytes(), want)
	}
	if w.Count() != 3 {
		t.Fatalf("Count = %d, want 3 (failed writes count too)", w.Count())
	}
}

// FuzzResultJSON holds AppendJSON to json.Marshal on arbitrary
// envelope strings, addresses, zones, ports, attempts, times, zone
// offsets and grab presence (bit i of grabs sets the i-th grab, each
// carrying s in its string fields).
func FuzzResultJSON(f *testing.F) {
	f.Add([]byte{192, 0, 2, 1}, "", "http", uint16(80), int64(1721476800), int64(0), 0, "success", "", 0, uint8(0), "")
	f.Fuzz(func(t *testing.T, ip []byte, zone, module string, port uint16, sec, nsec int64, offset int,
		status, errStr string, attempts int, grabs uint8, s string) {
		r := &Result{Module: module, Port: port, Status: Status(status), Error: errStr, Attempts: attempts}
		switch len(ip) {
		case 4:
			r.IP = netip.AddrFrom4([4]byte(ip))
		case 16:
			r.IP = netip.AddrFrom16([16]byte(ip)).WithZone(zone)
		}
		r.Time = time.Unix(sec, nsec).In(time.FixedZone("", offset))
		if grabs&1 != 0 {
			r.HTTP = &HTTPGrab{StatusCode: int(port), Title: s, Server: s}
		}
		if grabs&2 != 0 {
			r.TLS = &TLSGrab{Version: s, HandshakeOK: true, Subject: s, NotBefore: r.Time}
		}
		if grabs&4 != 0 {
			r.SSH = &SSHGrab{ServerID: s, Software: s, OS: s}
		}
		if grabs&8 != 0 {
			r.MQTT = &MQTTGrab{ReturnCode: byte(attempts), Open: true}
		}
		if grabs&16 != 0 {
			r.AMQP = &AMQPGrab{Product: s, Open: true, CloseCode: port}
		}
		if grabs&32 != 0 {
			r.CoAP = &CoAPGrab{Code: s, Resources: []string{s, module}}
		}
		checkAppendJSON(t, r)
	})
}
