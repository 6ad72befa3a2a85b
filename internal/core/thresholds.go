package core

// Human-perception latency thresholds the paper reads its measurements
// against (§3). Values are round-trip milliseconds.
const (
	// MTPms is the motion-to-photon threshold: input-to-display sync must
	// stay below ~20 ms for immersive applications (AR/VR); of that, ~13 ms
	// goes to the display pipeline, leaving ~7 ms for compute + RTT.
	MTPms = 20.0
	// PLms is the perceivable-latency threshold: delays beyond ~100 ms are
	// visible to the human eye (video stutter, input lag).
	PLms = 100.0
	// HRTms is the human reaction time: ~250 ms between stimulus and motor
	// response; active-engagement applications (teleoperation) must fit it.
	HRTms = 250.0
)
