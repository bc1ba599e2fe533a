// Command sparker-serve runs the long-lived multi-tenant job server: a
// shared driver that trains models submitted over HTTP under weighted
// fair-share scheduling and serves them through a batched prediction
// endpoint.
//
// Usage:
//
//	sparker-serve -addr 127.0.0.1:8080 -executors 4 -cores 4
//	sparker-serve -model clicks=clicks.spkm -tenant gold=2 -tenant free=1:4
//	sparker-serve -smoke        # self-driving end-to-end check, then exit
//
// Submit and score with any HTTP client:
//
//	curl -X POST localhost:8080/api/v1/jobs -d '{"tenant":"gold","model":"lr"}'
//	curl localhost:8080/api/v1/jobs/job-1
//	curl -X POST localhost:8080/api/v1/models/job-1/predict -d '{"points":[[1,0.5,0]]}'
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sparker/internal/mllib"
	"sparker/internal/rdd"
	"sparker/internal/server"
)

// repeatedFlag collects repeatable -model / -tenant flags.
type repeatedFlag []string

func (f *repeatedFlag) String() string     { return strings.Join(*f, ",") }
func (f *repeatedFlag) Set(v string) error { *f = append(*f, v); return nil }

// authHeader is the Authorization value the process's own API clients
// (tenant bootstrap, smoke test) attach, matching -auth-token.
var authHeader string

func httpGet(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if authHeader != "" {
		req.Header.Set("Authorization", authHeader)
	}
	return http.DefaultClient.Do(req)
}

func httpPostJSON(url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if authHeader != "" {
		req.Header.Set("Authorization", authHeader)
	}
	return http.DefaultClient.Do(req)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	executors := flag.Int("executors", 4, "simulated executors")
	cores := flag.Int("cores", 4, "cores per executor")
	parallelism := flag.Int("parallelism", 4, "split-aggregation ring channels: at most P; the ring uses min(P, ⌈aggregator bytes ÷ chunk bytes⌉)")
	maxJobs := flag.Int("max-jobs", 4, "max concurrently running training jobs")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain timeout")
	historyDir := flag.String("history-dir", "", "persist the event log and job outcomes to this directory and replay them on boot")
	authToken := flag.String("auth-token", os.Getenv("SPARKER_AUTH_TOKEN"),
		"bearer token required on /api/v1/* (default $SPARKER_AUTH_TOKEN; empty disables auth)")
	smoke := flag.Bool("smoke", false, "run an in-process end-to-end check and exit")
	var models, tenants repeatedFlag
	flag.Var(&models, "model", "preload a saved model: name=path (repeatable)")
	flag.Var(&tenants, "tenant", "preconfigure a tenant: name=weight[:maxslots] (repeatable)")
	flag.Parse()

	if *smoke {
		*addr = "127.0.0.1:0"
	}
	if *authToken != "" {
		authHeader = "Bearer " + *authToken
	}
	srv, err := server.New(server.Config{
		Addr: *addr,
		Cluster: rdd.Config{
			NumExecutors:     *executors,
			CoresPerExecutor: *cores,
			RingParallelism:  *parallelism,
		},
		MaxConcurrentJobs: *maxJobs,
		DrainTimeout:      *drain,
		HistoryDir:        *historyDir,
		AuthToken:         *authToken,
	})
	if err != nil {
		fail(err)
	}

	for _, spec := range models {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("bad -model %q (want name=path)", spec))
		}
		m, err := mllib.LoadModelFile(path)
		if err != nil {
			fail(err)
		}
		srv.RegisterModel(name, m)
		fmt.Printf("serving %s (%s, %d features) from %s\n", name, m.Kind(), m.NumFeatures(), path)
	}
	if err := configureTenants(srv.Addr(), tenants); err != nil {
		fail(err)
	}

	if *smoke {
		err := runSmoke(srv)
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Println("serve-demo PASS")
		return
	}

	fmt.Printf("sparker-serve listening on http://%s (%d executors × %d cores)\n",
		srv.Addr(), *executors, *cores)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down...")
	if err := srv.Close(); err != nil {
		fail(err)
	}
}

// configureTenants PUTs each name=weight[:maxslots] spec at the
// running server — same path an operator's curl would use.
func configureTenants(addr string, specs []string) error {
	for _, spec := range specs {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -tenant %q (want name=weight[:maxslots])", spec)
		}
		weightStr, slotStr, hasSlots := strings.Cut(rest, ":")
		weight, err := strconv.ParseFloat(weightStr, 64)
		if err != nil {
			return fmt.Errorf("bad -tenant %q weight: %v", spec, err)
		}
		cfg := map[string]any{"weight": weight}
		if hasSlots {
			slots, err := strconv.Atoi(slotStr)
			if err != nil {
				return fmt.Errorf("bad -tenant %q maxslots: %v", spec, err)
			}
			cfg["max_slots"] = slots
		}
		body, _ := json.Marshal(cfg)
		req, err := http.NewRequest(http.MethodPut,
			fmt.Sprintf("http://%s/api/v1/tenants/%s", addr, name), bytes.NewReader(body))
		if err != nil {
			return err
		}
		if authHeader != "" {
			req.Header.Set("Authorization", authHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("configuring tenant %s: status %d", name, resp.StatusCode)
		}
		fmt.Printf("tenant %s: weight %v\n", name, weight)
	}
	return nil
}

// runSmoke drives the full client path against the live server: submit
// a job, poll it to completion, list models, predict, check tenants
// and metrics. Exercised by `make serve-demo`.
func runSmoke(srv *server.Server) error {
	base := "http://" + srv.Addr()
	post := func(url string, body any) (int, []byte, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := httpPostJSON(url, b)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes(), nil
	}

	code, body, err := post(base+"/api/v1/jobs", map[string]any{
		"tenant": "smoke", "model": "lr", "scale": 60000, "iterations": 2, "save_as": "smoke-lr",
	})
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("submit: code=%d err=%v body=%s", code, err, body)
	}
	var st struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Features int `json:"features"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	fmt.Printf("submitted %s\n", st.ID)

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := httpGet(base + "/api/v1/jobs/" + st.ID)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" {
			return fmt.Errorf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job stuck in state %s", st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("job %s done\n", st.ID)

	dim := st.Result.Features
	point := make([]float64, dim)
	point[0] = 1
	code, body, err = post(base+"/api/v1/models/smoke-lr/predict", map[string]any{"points": []any{point}})
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("predict: code=%d err=%v body=%s", code, err, body)
	}
	var pr struct {
		Predictions []float64 `json:"predictions"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		return err
	}
	if len(pr.Predictions) != 1 {
		return fmt.Errorf("predict returned %v", pr.Predictions)
	}
	fmt.Printf("prediction: %v\n", pr.Predictions[0])

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "serve_predict_latency_ns") {
		return fmt.Errorf("/metrics missing serving series")
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sparker-serve:", err)
	os.Exit(1)
}
