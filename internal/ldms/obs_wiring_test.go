package ldms

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// These tests mirror the /metrics wiring of cmd/ldmsd and cmd/dsosd and
// pin the acceptance bar: each daemon's endpoint serves at least 30
// distinct series and covers every pipeline stage the daemon owns.

// scrape serves reg through the /metrics handler and returns the body
// as a series-name -> rendered-value map.
func scrape(t *testing.T, reg *obs.Registry) map[string]string {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	series := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		if line == "" {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			t.Fatalf("bad exposition line %q", line)
		}
		series[line[:i]] = line[i+1:]
	}
	return series
}

func wantStagePrefixes(t *testing.T, series map[string]string, prefixes []string) {
	t.Helper()
	for _, prefix := range prefixes {
		found := false
		for name := range series {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* series on /metrics", prefix)
		}
	}
}

func healthCode(h *obs.Health) int {
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	return rec.Code
}

func TestLdmsdMetricsEndpointShape(t *testing.T) {
	for _, mode := range []string{"reconnect", "stream"} {
		t.Run(mode, func(t *testing.T) { testLdmsdMetrics(t, mode) })
	}
}

// testLdmsdMetrics wires a node daemon exactly like `ldmsd -http
// -reconnect` or `ldmsd -http -stream -forward` and scrapes it.
func testLdmsdMetrics(t *testing.T, mode string) {
	// Upstream aggregator the uplink forwards to.
	up := NewDaemon("agg", "head")
	upSrv, err := ListenTCP(up, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upSrv.Close()

	d := NewDaemon("ldmsd", "nid00001")
	count := &CountStore{}
	d.AttachStore("darshanConnector", count)
	srv, err := ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	clock := obs.WallClock()
	d.Bus().Instrument("ldmsd", clock)
	d.Bus().Collect(reg, "ldmsd")
	srv.Instrument("tcp:ldmsd", clock)
	srv.Collect(reg, "ldmsd")
	CollectPools(reg)
	reg.RegisterCollector(func(emit func(string, float64)) {
		emit("dlc_store_count_messages_total", float64(count.Count()))
		emit("dlc_store_count_bytes_total", float64(count.Bytes()))
	})
	health := obs.NewHealth()
	var uplinkPrefix string
	switch mode {
	case "reconnect":
		fwd, err := NewReconnectingForwarder(d, ForwarderConfig{
			Addr: upSrv.Addr(), Tag: "darshanConnector", SpoolSize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fwd.Close()
		fwd.Collect(reg, "uplink")
		health.Register("spool", fwd.SpoolHealth())
		uplinkPrefix = "dlc_fwd_"
	case "stream":
		s, err := streams.OpenStream(streams.StreamConfig{
			Name: "ldmsd", Subjects: []string{"darshanConnector"}, Clock: clock,
		}, sos.NewMemWAL())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Bus().BindStream(s); err != nil {
			t.Fatal(err)
		}
		u, err := NewStreamUplink(s, UplinkConfig{Addr: upSrv.Addr(), Consumer: "uplink"})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		s.Collect(reg)
		u.Collect(reg, "uplink")
		uplinkPrefix = "dlc_uplink_"
	}

	client, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 20; i++ {
		if err := client.Publish(streams.Message{
			Tag: "darshanConnector", Type: streams.TypeJSON, Data: sampleConnectorMessage(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for (count.Count() < 20 || upSrv.Received() < 20) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	series := scrape(t, reg)
	if len(series) < 30 {
		t.Fatalf("ldmsd /metrics serves %d series, want >= 30", len(series))
	}
	wantStagePrefixes(t, series, []string{
		"dlc_bus_", "dlc_tcp_", uplinkPrefix, "dlc_pool_", "dlc_store_count_",
	})
	if got := series[`dlc_tcp_received_total{srv="ldmsd"}`]; got != "20" {
		t.Errorf(`dlc_tcp_received_total{srv="ldmsd"} = %s, want 20`, got)
	}
	if got := series["dlc_store_count_messages_total"]; got != "20" {
		t.Errorf("dlc_store_count_messages_total = %s, want 20", got)
	}
	if got := series[uplinkPrefix+`sent_total{`+mode2label(mode)+`="uplink"}`]; got != "20" {
		t.Errorf("%ssent_total = %s, want 20", uplinkPrefix, got)
	}
	if code := healthCode(health); code != http.StatusOK {
		t.Errorf("/healthz = %d with a healthy uplink, want 200", code)
	}
}

// mode2label is the label key each uplink kind exports its series under.
func mode2label(mode string) string {
	if mode == "stream" {
		return "uplink"
	}
	return "fwd"
}

func TestDsosdMetricsEndpointShape(t *testing.T) {
	// A sharded replicated cluster, wired exactly like `dsosd -http`.
	cluster := dsos.NewCluster(4, "darshan_data")
	if err := dsos.SetupDarshan(cluster); err != nil {
		t.Fatal(err)
	}
	cluster.SetReplication(2)
	client := dsos.Connect(cluster)
	d := NewDaemon("dsosd-ingest", "dsosd")
	dstore := NewDSOSStore(client)
	d.AttachStore("darshanConnector", dstore)
	srv, err := ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	clock := obs.WallClock()
	cluster.Instrument(reg, clock)
	dstore.Instrument(reg, clock)
	d.Bus().Instrument("dsosd-ingest", clock)
	d.Bus().Collect(reg, "dsosd-ingest")
	srv.Instrument("tcp:dsosd", clock)
	srv.Collect(reg, "dsosd")
	CollectPools(reg)
	health := obs.NewHealth()
	health.Register("cluster", cluster.ClusterHealth())

	tcpc, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tcpc.Close()
	for i := 0; i < 10; i++ {
		if err := tcpc.Publish(streams.Message{
			Tag: "darshanConnector", Type: streams.TypeJSON, Data: sampleConnectorMessage(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait on the store's own message counter, the value asserted below:
	// client.Count counts each replica at R=2, so it reaches 10 while
	// messages are still being stored.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Value("dlc_store_dsos_messages_total") < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	series := scrape(t, reg)
	if len(series) < 30 {
		t.Fatalf("dsosd /metrics serves %d series, want >= 30", len(series))
	}
	wantStagePrefixes(t, series, []string{
		"dlc_bus_", "dlc_tcp_", "dlc_pool_", "dlc_store_dsos_", "dlc_dsos_shard_", "dlc_dsos_quorum_latency_ns",
	})
	if got := series["dlc_store_dsos_messages_total"]; got != "10" {
		t.Errorf("dlc_store_dsos_messages_total = %s, want 10", got)
	}
	if got := series[`dlc_dsos_shard_up{shard="dsosd0"}`]; got != "1" {
		t.Errorf(`dlc_dsos_shard_up{shard="dsosd0"} = %s, want 1`, got)
	}
	if got := series["dlc_dsos_replication"]; got != "2" {
		t.Errorf("dlc_dsos_replication = %s, want 2", got)
	}
	if code := healthCode(health); code != http.StatusOK {
		t.Errorf("/healthz = %d with a full cluster, want 200", code)
	}

	// Crash shards below the replication quorum: the health endpoint
	// must degrade to 503 and the shard gauges must go dark.
	for _, dd := range cluster.Daemons()[:3] {
		dd.Crash()
	}
	if code := healthCode(health); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz = %d with 1/4 shards live and R=2, want 503", code)
	}
	series = scrape(t, reg)
	if got := series[`dlc_dsos_shard_up{shard="dsosd0"}`]; got != "0" {
		t.Errorf(`dlc_dsos_shard_up{shard="dsosd0"} = %s after crash, want 0`, got)
	}
}
