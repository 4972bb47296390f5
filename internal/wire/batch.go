package wire

// Frames are fixed-size, so a batch datagram is simply concatenated
// frames: the serving layer's ingest batching applied at the protocol
// layer. One UDP datagram can carry a whole deployment's sampling round
// (e.g. all links of a zone at one tick) and be validated frame by frame
// on receipt.

// AppendBatchTo appends the encoded frames of reports to buf and returns
// the extended slice.
func AppendBatchTo(buf []byte, reports []RSSReport) []byte {
	for i := range reports {
		buf = reports[i].AppendTo(buf)
	}
	return buf
}

// EncodeBatch returns the reports as one concatenated-frame datagram.
func EncodeBatch(reports []RSSReport) []byte {
	return AppendBatchTo(make([]byte, 0, len(reports)*FrameSize), reports)
}

// DecodeBatch decodes a datagram of concatenated frames, appending each
// valid frame to dst, and returns the extended slice with the number of
// bad frames. Frames are fixed-size with per-frame magic and CRC, so a
// corrupt frame costs exactly one frame: decoding resyncs at the next
// boundary and salvages the rest of the datagram. A trailing partial
// frame (or a runt datagram) counts as one bad frame. With enough
// capacity in dst, decoding allocates nothing.
func DecodeBatch(dst []RSSReport, data []byte) ([]RSSReport, int) {
	bad := 0
	for ; len(data) >= FrameSize; data = data[FrameSize:] {
		var r RSSReport
		if r.DecodeFromBytes(data) != nil {
			bad++
			continue
		}
		dst = append(dst, r)
	}
	if len(data) > 0 {
		bad++
	}
	return dst, bad
}
