package payload

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/cdma"
	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/fpga"
	"repro/internal/modem"
	"repro/internal/switchfab"
)

// WaveformMode is the uplink access scheme currently loaded in the DEMOD
// equipment — the §2.3 case study migrates ModeCDMA to ModeTDMA.
type WaveformMode int

// Waveform modes.
const (
	ModeNone WaveformMode = iota
	ModeCDMA
	ModeTDMA
)

// String implements fmt.Stringer.
func (m WaveformMode) String() string {
	switch m {
	case ModeCDMA:
		return "cdma"
	case ModeTDMA:
		return "tdma"
	default:
		return "none"
	}
}

// Design names carried in bitstream headers; the payload derives its DSP
// behaviour from what is actually loaded on its devices.
const (
	DesignCDMADemod = "cdma-demod"
	DesignTDMADemod = "tdma-demod"
)

// Config sizes the payload.
type Config struct {
	Strategy Partitioning
	// Carriers is the MF-TDMA carrier count (Fig 2 / §2.3 use 6).
	Carriers int
	// CDMA is the return-link CDMA configuration.
	CDMA cdma.Config
	// TDMAPayloadSymbols sizes TDMA burst payloads.
	TDMAPayloadSymbols int
}

// DefaultConfig returns the experiment configuration: 6 carriers,
// per-equipment chips, S-UMTS CDMA parameters.
func DefaultConfig() Config {
	return Config{
		Strategy:           PerEquipment,
		Carriers:           6,
		CDMA:               cdma.DefaultConfig(),
		TDMAPayloadSymbols: 200,
	}
}

// Payload is the running regenerative payload.
type Payload struct {
	cfg Config
	cs  *Chipset
	sw  *switchfab.Fabric

	burstFormat modem.BurstFormat

	// Demodulator pools: the burst format and CDMA parameters are fixed
	// at boot, so recycled demodulators (which fully reset per burst)
	// stand in for the bank of identical per-carrier FPGA chains. The
	// pools avoid redesigning RRC taps for every burst and let any
	// number of concurrent workers demodulate without shared state.
	tdmaDemods sync.Pool
	cdmaDemods sync.Pool
	syncCfg    modem.SyncConfig

	// codedBits bounds the soft bits fed to the decoder per burst
	// (0 = decode the whole burst payload); see SetBurstCodedBits.
	codedBits int

	// ReceiveFrameAndRouteQoS's receipts and decode buffers, one per cell,
	// reused by its next call; receive is its worker body (receiveCell),
	// built once so a call allocates no closure, with curFC and curAsgs.
	receipts []BurstReceipt
	decoded  [][]byte
	receive  func(int)
	curFC    *modem.FrameComposer
	curAsgs  []modem.SlotAssignment
}

// New boots a payload.
func New(cfg Config) (*Payload, error) {
	if cfg.Carriers < 1 {
		return nil, errors.New("payload: need at least one carrier")
	}
	cs, err := NewChipset(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	p := &Payload{
		cfg:         cfg,
		cs:          cs,
		sw:          switchfab.New(cfg.Carriers, 0),
		burstFormat: modem.DefaultBurstFormat(cfg.TDMAPayloadSymbols),
	}
	p.tdmaDemods.New = func() any {
		return modem.NewBurstDemodulatorSync(p.burstFormat, 0.35, 4, 10, modem.TimingOerderMeyr, p.syncCfg)
	}
	p.cdmaDemods.New = func() any { return cdma.NewDemodulator(p.cfg.CDMA) }
	p.receive = p.receiveCell
	return p, nil
}

// SetSyncConfig reconfigures the TDMA burst synchronization chain (UW
// threshold, feedforward frequency recovery, residual phase tracking)
// and rebuilds the demodulator pool so every subsequently drawn instance
// uses it. The zero SyncConfig is the boot default — the legacy UW-phase-
// only chain — so clean-channel callers are untouched. A traffic engine
// driving the payload owns the choice: it sets the chain its population
// needs at construction and whenever the population's impairments
// change. An unchanged config is a no-op, so the pool stays warm.
func (p *Payload) SetSyncConfig(sc modem.SyncConfig) {
	if sc == p.syncCfg {
		return
	}
	p.syncCfg = sc
	p.tdmaDemods = sync.Pool{New: p.tdmaDemods.New} // New reads p.syncCfg
}

// SyncConfig returns the active TDMA burst synchronization configuration.
func (p *Payload) SyncConfig() modem.SyncConfig { return p.syncCfg }

// SyncInfo carries the burst-synchronization diagnostics of one
// demodulated TDMA burst, the per-burst view the traffic engine
// aggregates into per-terminal sync stats. CDMA bursts and receipts
// whose demodulation never ran (service down, bad carrier) leave it
// zero with Scanned false.
type SyncInfo struct {
	Scanned  bool    // the TDMA demodulation stage ran its UW scan
	UWMetric float64 // normalized unique-word correlation magnitude
	FreqEst  float64 // feedforward CFO estimate (cycles/symbol)
	Timing   float64 // fractional timing offset used (samples)
	Phase    float64 // UW carrier phase (radians)
}

// SetBurstCodedBits declares how many soft bits of each burst carry the
// codeword (the rest of the burst payload is padding); the frame
// pipeline trims decoder input accordingly. Zero (the default) decodes
// the whole burst. Set it once at link configuration time, before
// frames are processed.
func (p *Payload) SetBurstCodedBits(n int) { p.codedBits = n }

// Chipset exposes the FPGA set (the OBC registers these devices).
func (p *Payload) Chipset() *Chipset { return p.cs }

// Switch exposes the baseband switching fabric — one shard per carrier
// beam, thread-safe for concurrent routers (see switchfab's ownership
// rule: a traffic engine adopts it as its downlink queue).
func (p *Payload) Switch() *switchfab.Fabric { return p.sw }

// Config returns the payload configuration.
func (p *Payload) Config() Config { return p.cfg }

// BurstFormat returns the TDMA burst layout.
func (p *Payload) BurstFormat() modem.BurstFormat { return p.burstFormat }

// Mode derives the active waveform from the design loaded on the DEMOD
// devices.
func (p *Payload) Mode() WaveformMode {
	devs := p.cs.placement[FuncDemod]
	if len(devs) == 0 {
		return ModeNone
	}
	d := p.cs.devices[devs[0]]
	switch {
	case strings.HasPrefix(d.LoadedDesign(), DesignCDMADemod):
		return ModeCDMA
	case strings.HasPrefix(d.LoadedDesign(), DesignTDMADemod):
		return ModeTDMA
	default:
		return ModeNone
	}
}

// designs holds each design synthesised in the process, keyed by name
// and device size: immutable masters that synthesizeDesign copies out.
var designs sync.Map

// synthesizeDesign returns a bitstream with the given name filling about
// half the device — realistic reload volume and non-trivial content. The
// netlist is compiled once per (name, rows, cols); the result is the
// caller's copy.
func synthesizeDesign(name string, rows, cols int) *fpga.Bitstream {
	key := fmt.Sprintf("%s %dx%d", name, rows, cols)
	m, ok := designs.Load(key)
	if !ok {
		n := max(rows*cols/2, 8)
		nl := fpga.NewNetlist(name, 8)
		acc := 0
		for i := 1; i < n && nl.NumGates() < n; i++ {
			acc = nl.AddGate(fpga.LUTXor, acc, (i%7)+1)
		}
		nl.MarkOutput(acc)
		bs, err := nl.Compile(rows, cols)
		if err != nil {
			panic("payload: synthesized design does not fit: " + err.Error())
		}
		m, _ = designs.LoadOrStore(key, bs)
	}
	bs := *m.(*fpga.Bitstream)
	bs.Frames = slices.Clone(bs.Frames)
	return &bs
}

// DemodBitstreams returns, per DEMOD device, the bitstream implementing
// the given waveform — what the NCC uploads for the migration.
func (p *Payload) DemodBitstreams(mode WaveformMode) map[string]*fpga.Bitstream {
	if mode == ModeTDMA {
		return p.bitstreams(FuncDemod, DesignTDMADemod)
	}
	return p.bitstreams(FuncDemod, DesignCDMADemod)
}

// DecodBitstreams returns, per DECOD device, the bitstream implementing
// the given codec (fec.Codec Name()).
func (p *Payload) DecodBitstreams(codecName string) map[string]*fpga.Bitstream {
	return p.bitstreams(FuncDecod, codecName)
}

// bitstreams returns design name's bitstream for each device hosting f.
func (p *Payload) bitstreams(f Function, name string) map[string]*fpga.Bitstream {
	out := make(map[string]*fpga.Bitstream)
	for _, dn := range p.cs.placement[f] {
		d := p.cs.devices[dn]
		out[dn] = synthesizeDesign(name, d.Rows(), d.Cols())
	}
	return out
}

// InstallDesign force-loads a design bitstream on a device (used to set
// the boot waveform without the full ground procedure) and records it as
// the golden configuration.
func (p *Payload) InstallDesign(device string, bs *fpga.Bitstream) error {
	d, ok := p.cs.Device(device)
	if !ok {
		return fmt.Errorf("payload: unknown device %s", device)
	}
	d.PowerOff()
	if err := d.FullLoad(bs); err != nil {
		return err
	}
	d.PowerOn()
	p.cs.SetGolden(device, bs)
	return nil
}

// SetWaveform installs the waveform design on every DEMOD device.
func (p *Payload) SetWaveform(mode WaveformMode) error { return p.installEach(p.DemodBitstreams(mode)) }

// SetCodec installs the decoder design on every DECOD device.
func (p *Payload) SetCodec(codecName string) error {
	return p.installEach(p.DecodBitstreams(codecName))
}

// installEach installs every device's bitstream of a per-device map.
func (p *Payload) installEach(bitstreams map[string]*fpga.Bitstream) error {
	for dn, bs := range bitstreams {
		if err := p.InstallDesign(dn, bs); err != nil {
			return err
		}
	}
	return nil
}

// CodecForDesign maps a DECOD design name to the fec implementation it
// stands for — the single place design names and decoders meet, shared
// by the live payload and by offline validators (the scenario spec
// layer rejects unknown codecs before anything is built).
func CodecForDesign(name string) (fec.Codec, error) {
	switch {
	case name == "uncoded":
		return fec.Uncoded{}, nil
	case strings.HasPrefix(name, "conv-r1/2"):
		return fec.UMTSConvHalf(), nil
	case strings.HasPrefix(name, "conv-r1/3"):
		return fec.UMTSConvThird(), nil
	case strings.HasPrefix(name, "conv-r2/3"):
		return fec.UMTSConvTwoThirds(), nil
	case strings.HasPrefix(name, "turbo"):
		return fec.UMTSTurbo(), nil
	default:
		return nil, fmt.Errorf("payload: unknown codec design %q", name)
	}
}

// Codec returns the decoder implementation matching the DECOD devices'
// loaded design.
func (p *Payload) Codec() (fec.Codec, error) {
	devs := p.cs.placement[FuncDecod]
	if len(devs) == 0 {
		return nil, errors.New("payload: no decoder device")
	}
	name := p.cs.devices[devs[0]].LoadedDesign()
	codec, err := CodecForDesign(name)
	if err != nil {
		return nil, fmt.Errorf("payload: no codec loaded (design %q)", name)
	}
	return codec, nil
}

// ErrServiceDown is returned when a required function's devices are off
// or configuration-corrupted.
var ErrServiceDown = errors.New("payload: service down")

// errBurstNotFound is a lost TDMA burst's error: one value, so that a
// loss allocates nothing.
var errBurstNotFound = errors.New("payload: TDMA burst not found")

// DemodulateCarrier runs the active demodulator on one carrier's
// baseband block, returning soft bits. It fails if the DEMOD (or DEMUX)
// function is unhealthy — which is exactly what happens during a
// reconfiguration or after an unscrubbed SEU. It is a thin single-
// carrier wrapper over the same demodulator bank the frame pipeline
// uses, so sequential and batch reception are bit-identical.
func (p *Payload) DemodulateCarrier(carrier int, rx dsp.Vec) ([]float64, error) {
	soft, dem, _, err := p.demodulateCarrier(carrier, rx)
	defer p.release(dem)
	return slices.Clone(soft), err
}

// demodulateCarrier is DemodulateCarrier plus the per-burst sync
// diagnostics the frame pipeline plumbs into receipts, without the copy.
// It runs the burst through a pooled instance of the active waveform's
// demodulator. Demodulators reset fully per burst, so any worker may use
// any pooled instance; concurrent callers never share one because
// sync.Pool hands an instance to one goroutine at a time. A found TDMA
// burst's soft bits live in the returned instance: the caller reads
// them, then hands it back with release.
func (p *Payload) demodulateCarrier(carrier int, rx dsp.Vec) ([]float64, *modem.BurstDemodulator, SyncInfo, error) {
	if carrier < 0 || carrier >= p.cfg.Carriers {
		return nil, nil, SyncInfo{}, errors.New("payload: carrier out of range")
	}
	if !p.cs.FunctionHealthy(FuncDemux) || !p.cs.FunctionHealthy(FuncDemod) {
		return nil, nil, SyncInfo{}, ErrServiceDown
	}
	switch p.Mode() {
	case ModeCDMA:
		dem := p.cdmaDemods.Get().(*cdma.Demodulator)
		soft := dem.Demodulate(rx, 64)
		p.cdmaDemods.Put(dem)
		if soft == nil {
			return nil, nil, SyncInfo{}, errors.New("payload: CDMA acquisition failed")
		}
		return soft, nil, SyncInfo{}, nil
	case ModeTDMA:
		dem := p.tdmaDemods.Get().(*modem.BurstDemodulator)
		res := dem.Demodulate(rx)
		info := SyncInfo{Scanned: true, UWMetric: res.UWMetric, FreqEst: res.FreqEst, Timing: res.Timing, Phase: res.Phase}
		if !res.Found {
			p.tdmaDemods.Put(dem)
			return nil, nil, info, errBurstNotFound
		}
		return res.Soft, dem, info, nil
	default:
		return nil, nil, SyncInfo{}, errors.New("payload: no waveform loaded")
	}
}

// release returns a demodulator demodulateCarrier handed out, if any.
func (p *Payload) release(dem *modem.BurstDemodulator) {
	if dem != nil {
		p.tdmaDemods.Put(dem)
	}
}

// decode is the DECOD stage: it trims a burst's soft bits to the
// configured codeword length (SetBurstCodedBits), runs the active
// decoder over them and appends the info bits to dst. A burst that came
// up short, or a soft-bit count the codec cannot decode, is an error,
// not a panic: the count comes from received data.
func (p *Payload) decode(dst []byte, soft []float64) ([]byte, error) {
	if p.codedBits > 0 {
		if len(soft) < p.codedBits {
			return nil, fmt.Errorf("payload: burst carries %d soft bits, codeword needs %d", len(soft), p.codedBits)
		}
		soft = soft[:p.codedBits]
	}
	if !p.cs.FunctionHealthy(FuncDecod) {
		return nil, ErrServiceDown
	}
	codec, err := p.Codec()
	if err != nil {
		return nil, err
	}
	if err := codec.CheckDecodeLen(len(soft)); err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	return codec.AppendDecode(dst, soft), nil
}

// checkBeam rejects a destination beam outside the switching fabric,
// which serves exactly one shard per carrier beam.
func (p *Payload) checkBeam(beam int) error {
	if beam < 0 || beam >= p.sw.NumBeams() {
		return fmt.Errorf("payload: beam %d outside the %d-beam switching fabric", beam, p.sw.NumBeams())
	}
	return nil
}
