package client

import (
	"net"
	"time"
)

// NewPipelineWith is NewPipeline under a window and retry policy other
// than the shipped one, for the tests against the real server stack in
// package client_test. A zero retryTimeout never retransmits.
func NewPipelineWith(c *Client, conn net.Conn, window int, retryTimeout time.Duration, retries int, backoff time.Duration) *Pipeline {
	return newPipeline(c, conn, policy{window: window, retryTimeout: retryTimeout, retries: retries, backoff: backoff})
}
